package llvm

import "strconv"

// Builder constructs instructions at the end of a block.
type Builder struct {
	fn  *Function
	blk *Block
	ctr *int
}

// NewBuilder returns a builder for fn, initially without a block.
func NewBuilder(fn *Function) *Builder {
	ctr := 0
	return &Builder{fn: fn, ctr: &ctr}
}

// SetBlock retargets the builder.
func (b *Builder) SetBlock(blk *Block) { b.blk = blk }

// Block returns the current block.
func (b *Builder) Block() *Block { return b.blk }

// Func returns the function under construction.
func (b *Builder) Func() *Function { return b.fn }

// NewName returns a fresh SSA name.
func (b *Builder) NewName() string {
	n := "t" + strconv.Itoa(*b.ctr)
	*b.ctr++
	return n
}

func (b *Builder) emit(in *Instr) *Instr {
	if in.HasResult() && in.Name == "" {
		in.Name = b.NewName()
	}
	b.blk.Append(in)
	return in
}

// Binary emits a binary arithmetic instruction.
func (b *Builder) Binary(op Opcode, l, r Value) *Instr {
	return b.emit(&Instr{Op: op, Ty: l.Type(), Args: []Value{l, r}})
}

// Add emits add.
func (b *Builder) Add(l, r Value) *Instr { return b.Binary(OpAdd, l, r) }

// Sub emits sub.
func (b *Builder) Sub(l, r Value) *Instr { return b.Binary(OpSub, l, r) }

// Mul emits mul.
func (b *Builder) Mul(l, r Value) *Instr { return b.Binary(OpMul, l, r) }

// SDiv emits sdiv.
func (b *Builder) SDiv(l, r Value) *Instr { return b.Binary(OpSDiv, l, r) }

// FAdd emits fadd.
func (b *Builder) FAdd(l, r Value) *Instr { return b.Binary(OpFAdd, l, r) }

// FNeg emits fneg.
func (b *Builder) FNeg(v Value) *Instr {
	return b.emit(&Instr{Op: OpFNeg, Ty: v.Type(), Args: []Value{v}})
}

// ICmp emits icmp with the given predicate.
func (b *Builder) ICmp(pred string, l, r Value) *Instr {
	return b.emit(&Instr{Op: OpICmp, Ty: I1(), Pred: pred, Args: []Value{l, r}})
}

// FCmp emits fcmp with the given predicate.
func (b *Builder) FCmp(pred string, l, r Value) *Instr {
	return b.emit(&Instr{Op: OpFCmp, Ty: I1(), Pred: pred, Args: []Value{l, r}})
}

// Select emits select.
func (b *Builder) Select(c, t, f Value) *Instr {
	return b.emit(&Instr{Op: OpSelect, Ty: t.Type(), Args: []Value{c, t, f}})
}

// Cast emits a conversion instruction to the target type.
func (b *Builder) Cast(op Opcode, v Value, to *Type) *Instr {
	return b.emit(&Instr{Op: op, Ty: to, Args: []Value{v}})
}

// Load emits a typed load through ptr.
func (b *Builder) Load(elem *Type, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpLoad, Ty: elem, SrcElem: elem, Args: []Value{ptr}})
}

// Store emits a store of val through ptr.
func (b *Builder) Store(val, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpStore, SrcElem: val.Type(), Args: []Value{val, ptr}})
}

// GEP emits getelementptr with the given source element type.
func (b *Builder) GEP(srcElem *Type, ptr Value, idxs ...Value) *Instr {
	resElem := GEPResultElem(srcElem, len(idxs))
	return b.emit(&Instr{Op: OpGEP, Ty: Ptr(resElem), SrcElem: srcElem,
		Args: append([]Value{ptr}, idxs...)})
}

// GEPResultElem computes the pointee type after stepping through n indices
// (first index steps the pointer itself).
func GEPResultElem(src *Type, n int) *Type {
	t := src
	for i := 1; i < n; i++ {
		switch {
		case t.IsArray():
			t = t.Elem
		case t.IsStruct():
			// Field index constant is required to be precise; callers in
			// this repo always GEP arrays, so keep the first field type.
			if len(t.Fields) > 0 {
				t = t.Fields[0]
			}
		}
	}
	return t
}

// Alloca emits a stack allocation of ty.
func (b *Builder) Alloca(ty *Type) *Instr {
	return b.emit(&Instr{Op: OpAlloca, Ty: Ptr(ty), SrcElem: ty})
}

// Phi emits an empty phi of type ty; use AddIncoming to populate it.
func (b *Builder) Phi(ty *Type) *Instr {
	return b.emit(&Instr{Op: OpPhi, Ty: ty})
}

// AddIncoming appends an incoming edge to a phi.
func (in *Instr) AddIncoming(v Value, blk *Block) {
	if in.Op != OpPhi {
		panic("llvm: AddIncoming on non-phi")
	}
	in.Args = append(in.Args, v)
	in.Blocks = append(in.Blocks, blk)
}

// Br emits an unconditional branch.
func (b *Builder) Br(dest *Block) *Instr {
	return b.emit(&Instr{Op: OpBr, Blocks: []*Block{dest}})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, t, f *Block) *Instr {
	return b.emit(&Instr{Op: OpCondBr, Args: []Value{cond}, Blocks: []*Block{t, f}})
}

// Ret emits a return (v may be nil for void).
func (b *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.emit(in)
}

// Call emits a call to the named function.
func (b *Builder) Call(callee string, ret *Type, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpCall, Ty: ret, Callee: callee, Args: args})
}
