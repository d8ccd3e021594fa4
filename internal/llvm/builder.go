package llvm

import "strconv"

// Builder constructs instructions at the end of a block. Each instruction
// is one allocation that also holds its operand and branch target lists.
type Builder struct {
	fn  *Function
	blk *Block
	ctr int
}

// NewBuilder returns a builder for fn, initially without a block.
func NewBuilder(fn *Function) *Builder {
	return &Builder{fn: fn}
}

// SetBlock retargets the builder.
func (b *Builder) SetBlock(blk *Block) { b.blk = blk }

// Block returns the current block.
func (b *Builder) Block() *Block { return b.blk }

// Func returns the function under construction.
func (b *Builder) Func() *Function { return b.fn }

// tempNames holds the first fresh names, t0 to t4095, as substrings of
// one string, so naming an instruction allocates nothing.
var tempNames = func() []string {
	const n = 4096
	var buf []byte
	ends := make([]int, n)
	for i := range ends {
		buf = strconv.AppendInt(append(buf, 't'), int64(i), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for i, end := range ends {
		names[i] = all[start:end]
		start = end
	}
	return names
}()

// NewName returns a fresh SSA name.
func (b *Builder) NewName() string {
	i := b.ctr
	b.ctr++
	if i < len(tempNames) {
		return tempNames[i]
	}
	return "t" + strconv.Itoa(i)
}

func (b *Builder) emit(in *Instr) *Instr {
	if in.HasResult() && in.Name == "" {
		in.Name = b.NewName()
	}
	b.blk.Append(in)
	return in
}

// Instructions allocated together with their lists: the lists die with
// the instruction, and a node with up to three operands fits the size
// class just above a bare one.
type (
	instr1 struct {
		Instr
		ops [1]Value
	}
	instr2 struct {
		Instr
		ops [2]Value
	}
	instr3 struct {
		Instr
		ops [3]Value
	}
	branch struct {
		Instr
		targets [1]*Block
	}
	condBranch struct {
		Instr
		ops     [1]Value
		targets [2]*Block
	}
)

func newInstr1(op Opcode, ty *Type, x Value) *Instr {
	n := &instr1{}
	n.ops[0] = x
	n.Op, n.Ty, n.Args = op, ty, n.ops[:]
	return &n.Instr
}

func newInstr2(op Opcode, ty *Type, x, y Value) *Instr {
	n := &instr2{}
	n.ops[0], n.ops[1] = x, y
	n.Op, n.Ty, n.Args = op, ty, n.ops[:]
	return &n.Instr
}

// Binary emits a binary arithmetic instruction.
func (b *Builder) Binary(op Opcode, l, r Value) *Instr {
	return b.emit(newInstr2(op, l.Type(), l, r))
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
	return b.emit(newInstr1(OpFNeg, v.Type(), v))
}

// ICmp emits icmp with the given predicate.
func (b *Builder) ICmp(pred string, l, r Value) *Instr {
	in := newInstr2(OpICmp, I1(), l, r)
	in.Pred = pred
	return b.emit(in)
}

// FCmp emits fcmp with the given predicate.
func (b *Builder) FCmp(pred string, l, r Value) *Instr {
	in := newInstr2(OpFCmp, I1(), l, r)
	in.Pred = pred
	return b.emit(in)
}

// Select emits select.
func (b *Builder) Select(c, t, f Value) *Instr {
	n := &instr3{}
	n.ops[0], n.ops[1], n.ops[2] = c, t, f
	n.Op, n.Ty, n.Args = OpSelect, t.Type(), n.ops[:]
	return b.emit(&n.Instr)
}

// Cast emits a conversion instruction to the target type.
func (b *Builder) Cast(op Opcode, v Value, to *Type) *Instr {
	return b.emit(newInstr1(op, to, v))
}

// Load emits a typed load through ptr.
func (b *Builder) Load(elem *Type, ptr Value) *Instr {
	in := newInstr1(OpLoad, elem, ptr)
	in.SrcElem = elem
	return b.emit(in)
}

// Store emits a store of val through ptr.
func (b *Builder) Store(val, ptr Value) *Instr {
	in := newInstr2(OpStore, nil, val, ptr)
	in.SrcElem = val.Type()
	return b.emit(in)
}

// GEP emits getelementptr with the given source element type.
func (b *Builder) GEP(srcElem *Type, ptr Value, idxs ...Value) *Instr {
	ops := make([]Value, 1+len(idxs))
	ops[0] = ptr
	copy(ops[1:], idxs)
	return b.GEPOperands(srcElem, Ptr(GEPResultElem(srcElem, len(idxs))), ops)
}

// GEPOperands emits getelementptr with the given source element type and
// result type over ops, the pointer and then the indices. The instruction
// keeps ops, so a caller that builds the list hands it over whole.
func (b *Builder) GEPOperands(srcElem, ty *Type, ops []Value) *Instr {
	return b.emit(&Instr{Op: OpGEP, Ty: ty, SrcElem: srcElem, Args: ops})
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
	n := &branch{}
	n.targets[0] = dest
	n.Op, n.Blocks = OpBr, n.targets[:]
	return b.emit(&n.Instr)
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, t, f *Block) *Instr {
	n := &condBranch{}
	n.ops[0] = cond
	n.targets[0], n.targets[1] = t, f
	n.Op, n.Args, n.Blocks = OpCondBr, n.ops[:], n.targets[:]
	return b.emit(&n.Instr)
}

// Ret emits a return (v may be nil for void).
func (b *Builder) Ret(v Value) *Instr {
	if v == nil {
		return b.emit(&Instr{Op: OpRet})
	}
	return b.emit(newInstr1(OpRet, nil, v))
}

// Call emits a call to the named function.
func (b *Builder) Call(callee string, ret *Type, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpCall, Ty: ret, Callee: callee, Args: args})
}
