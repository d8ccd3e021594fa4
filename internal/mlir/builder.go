package mlir

import "fmt"

// Builder creates ops at an insertion point (always the end of a block here;
// passes that need mid-block insertion use Block.InsertBefore directly).
type Builder struct {
	block *Block
}

// NewBuilder returns a builder appending into blk.
func NewBuilder(blk *Block) *Builder { return &Builder{block: blk} }

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.block }

// Create appends a generic op and returns it.
func (b *Builder) Create(name string, operands []*Value, resultTypes []*Type) *Op {
	op := NewOp(name, operands, resultTypes)
	b.block.Append(op)
	return op
}

// funcAttrsCap is the attribute capacity a func.func with n arguments is
// built with: its name and result types, the top and dataflow marks, and
// an array partition per argument.
func funcAttrsCap(n int) int { return 4 + n }

// Func creates a func.func in the module body and returns the op and its
// entry-block argument values.
func (m *Module) AddFunc(name string, argTypes []*Type, resultTypes []*Type) (*Op, []*Value) {
	f := NewOp(OpFunc, nil, nil)
	f.Attrs = make([]NamedAttr, 0, funcAttrsCap(len(argTypes)))
	f.SetAttr(AttrSymName, StringAttr(name))
	resAttrs := make(ArrayAttr, len(resultTypes))
	for i, t := range resultTypes {
		resAttrs[i] = TypeAttr{t}
	}
	f.SetAttr(AttrResultTypes, resAttrs)
	r := f.AddRegion()
	entry := NewBlock(argTypes...)
	r.AddBlock(entry)
	m.Body().Append(f)
	return f, entry.Args
}

// ConstantIndex creates arith.constant : index.
func (b *Builder) ConstantIndex(v int64) *Value {
	op := b.Create(OpConstant, nil, []*Type{Index()})
	op.SetAttr(AttrValue, IntAttr{Value: v, Ty: Index()})
	return op.Result(0)
}

// ConstantInt creates arith.constant : iN.
func (b *Builder) ConstantInt(v int64, ty *Type) *Value {
	op := b.Create(OpConstant, nil, []*Type{ty})
	op.SetAttr(AttrValue, IntAttr{Value: v, Ty: ty})
	return op.Result(0)
}

// ConstantFloat creates arith.constant : fN. f32 constants are rounded to
// single precision at creation so every downstream path (interpretation,
// translation, C emission) sees the same value.
func (b *Builder) ConstantFloat(v float64, ty *Type) *Value {
	if ty.IsFloat() && ty.Width == 32 {
		v = float64(float32(v))
	}
	op := b.Create(OpConstant, nil, []*Type{ty})
	op.SetAttr(AttrValue, FloatAttr{Value: v, Ty: ty})
	return op.Result(0)
}

func (b *Builder) binary(name string, lhs, rhs *Value) *Value {
	if !lhs.Type().Equal(rhs.Type()) {
		panic(fmt.Sprintf("mlir: %s operand type mismatch: %s vs %s", name, lhs.Type(), rhs.Type()))
	}
	return b.Create(name, []*Value{lhs, rhs}, []*Type{lhs.Type()}).Result(0)
}

// AddI creates arith.addi.
func (b *Builder) AddI(l, r *Value) *Value { return b.binary(OpAddI, l, r) }

// SubI creates arith.subi.
func (b *Builder) SubI(l, r *Value) *Value { return b.binary(OpSubI, l, r) }

// MulI creates arith.muli.
func (b *Builder) MulI(l, r *Value) *Value { return b.binary(OpMulI, l, r) }

// DivSI creates arith.divsi.
func (b *Builder) DivSI(l, r *Value) *Value { return b.binary(OpDivSI, l, r) }

// RemSI creates arith.remsi.
func (b *Builder) RemSI(l, r *Value) *Value { return b.binary(OpRemSI, l, r) }

// AddF creates arith.addf.
func (b *Builder) AddF(l, r *Value) *Value { return b.binary(OpAddF, l, r) }

// SubF creates arith.subf.
func (b *Builder) SubF(l, r *Value) *Value { return b.binary(OpSubF, l, r) }

// MulF creates arith.mulf.
func (b *Builder) MulF(l, r *Value) *Value { return b.binary(OpMulF, l, r) }

// DivF creates arith.divf.
func (b *Builder) DivF(l, r *Value) *Value { return b.binary(OpDivF, l, r) }

// NegF creates arith.negf.
func (b *Builder) NegF(v *Value) *Value {
	return b.Create(OpNegF, []*Value{v}, []*Type{v.Type()}).Result(0)
}

// MinSI creates arith.minsi.
func (b *Builder) MinSI(l, r *Value) *Value { return b.binary(OpMinSI, l, r) }

// MaxSI creates arith.maxsi.
func (b *Builder) MaxSI(l, r *Value) *Value { return b.binary(OpMaxSI, l, r) }

// CmpI creates arith.cmpi with the given predicate.
func (b *Builder) CmpI(pred string, l, r *Value) *Value {
	op := b.Create(OpCmpI, []*Value{l, r}, []*Type{I1()})
	op.SetAttr(AttrPredicate, StringAttr(pred))
	return op.Result(0)
}

// CmpF creates arith.cmpf with the given predicate.
func (b *Builder) CmpF(pred string, l, r *Value) *Value {
	op := b.Create(OpCmpF, []*Value{l, r}, []*Type{I1()})
	op.SetAttr(AttrPredicate, StringAttr(pred))
	return op.Result(0)
}

// Select creates arith.select.
func (b *Builder) Select(cond, t, f *Value) *Value {
	return b.Create(OpSelect, []*Value{cond, t, f}, []*Type{t.Type()}).Result(0)
}

// IndexCast creates arith.index_cast to the target type.
func (b *Builder) IndexCast(v *Value, to *Type) *Value {
	return b.Create(OpIndexCast, []*Value{v}, []*Type{to}).Result(0)
}

// SIToFP creates arith.sitofp.
func (b *Builder) SIToFP(v *Value, to *Type) *Value {
	return b.Create(OpSIToFP, []*Value{v}, []*Type{to}).Result(0)
}

// Alloc creates memref.alloc of the given memref type.
func (b *Builder) Alloc(ty *Type) *Value {
	return b.Create(OpAlloc, nil, []*Type{ty}).Result(0)
}

// Load creates memref.load.
func (b *Builder) Load(mem *Value, idxs ...*Value) *Value {
	ops := append([]*Value{mem}, idxs...)
	return b.Create(OpLoad, ops, []*Type{mem.Type().Elem}).Result(0)
}

// Store creates memref.store.
func (b *Builder) Store(val, mem *Value, idxs ...*Value) *Op {
	ops := append([]*Value{val, mem}, idxs...)
	return b.Create(OpStore, ops, nil)
}

// AffineLoad creates affine.load with an identity map over idxs.
func (b *Builder) AffineLoad(mem *Value, idxs ...*Value) *Value {
	return b.AffineLoadMap(mem, IdentityMap(len(idxs)), idxs...)
}

// AffineLoadMap creates affine.load with an explicit access map.
func (b *Builder) AffineLoadMap(mem *Value, m *AffineMap, mapOperands ...*Value) *Value {
	ops := append([]*Value{mem}, mapOperands...)
	op := b.Create(OpAffineLoad, ops, []*Type{mem.Type().Elem})
	op.SetAttr(AttrMap, AffineMapAttr{m})
	return op.Result(0)
}

// AffineStore creates affine.store with an identity map over idxs.
func (b *Builder) AffineStore(val, mem *Value, idxs ...*Value) *Op {
	return b.AffineStoreMap(val, mem, IdentityMap(len(idxs)), idxs...)
}

// AffineStoreMap creates affine.store with an explicit access map.
func (b *Builder) AffineStoreMap(val, mem *Value, m *AffineMap, mapOperands ...*Value) *Op {
	ops := append([]*Value{val, mem}, mapOperands...)
	op := b.Create(OpAffineStore, ops, nil)
	op.SetAttr(AttrMap, AffineMapAttr{m})
	return op
}

// AffineApply creates affine.apply of a single-result map.
func (b *Builder) AffineApply(m *AffineMap, operands ...*Value) *Value {
	if len(m.Exprs) != 1 {
		panic("mlir: affine.apply requires a single-result map")
	}
	op := b.Create(OpAffineApply, operands, []*Type{Index()})
	op.SetAttr(AttrMap, AffineMapAttr{m})
	return op.Result(0)
}

// AffineForConst creates affine.for %iv = lo to hi step step and calls body
// with a builder positioned in the loop body (the affine.yield is appended
// after body returns). It returns the loop op.
func (b *Builder) AffineForConst(lo, hi, step int64, body func(*Builder, *Value)) *Op {
	return b.AffineFor(ConstantMap(lo), nil, ConstantMap(hi), nil, step, body)
}

// AffineForUpTo creates affine.for %iv = 0 to map(operands) step 1.
func (b *Builder) AffineForUpTo(upper *AffineMap, upperOperands []*Value, body func(*Builder, *Value)) *Op {
	return b.AffineFor(ConstantMap(0), nil, upper, upperOperands, 1, body)
}

// AffineFor creates a general affine.for.
func (b *Builder) AffineFor(lower *AffineMap, lowerOperands []*Value,
	upper *AffineMap, upperOperands []*Value, step int64,
	body func(*Builder, *Value)) *Op {

	operands := append(append([]*Value{}, lowerOperands...), upperOperands...)
	op := b.Create(OpAffineFor, operands, nil)
	op.SetAttr(AttrLowerMap, AffineMapAttr{lower})
	op.SetAttr(AttrUpperMap, AffineMapAttr{upper})
	op.SetAttr(AttrStep, I(step))
	op.SetAttr(AttrLBCount, I(int64(len(lowerOperands))))
	r := op.AddRegion()
	blk := NewBlock(Index())
	r.AddBlock(blk)
	inner := NewBuilder(blk)
	body(inner, blk.Args[0])
	inner.Create(OpAffineYield, nil, nil)
	return op
}

// Return creates func.return.
func (b *Builder) Return(vals ...*Value) *Op { return b.Create(OpReturn, vals, nil) }

// Call creates func.call to the named function.
func (b *Builder) Call(callee string, resultTypes []*Type, args ...*Value) *Op {
	op := b.Create(OpCall, args, resultTypes)
	op.SetAttr(AttrCallee, SymbolRefAttr(callee))
	return op
}

// SCFFor creates scf.for %iv = lo to hi step st (no iter args).
func (b *Builder) SCFFor(lo, hi, st *Value, body func(*Builder, *Value)) *Op {
	op := b.Create(OpSCFFor, []*Value{lo, hi, st}, nil)
	r := op.AddRegion()
	blk := NewBlock(Index())
	r.AddBlock(blk)
	inner := NewBuilder(blk)
	body(inner, blk.Args[0])
	inner.Create(OpSCFYield, nil, nil)
	return op
}

// SCFIf creates scf.if with then/else regions (no results).
func (b *Builder) SCFIf(cond *Value, then func(*Builder), els func(*Builder)) *Op {
	op := b.Create(OpSCFIf, []*Value{cond}, nil)
	tr := op.AddRegion()
	tb := NewBlock()
	tr.AddBlock(tb)
	tBuilder := NewBuilder(tb)
	then(tBuilder)
	tBuilder.Create(OpSCFYield, nil, nil)
	if els != nil {
		er := op.AddRegion()
		eb := NewBlock()
		er.AddBlock(eb)
		eBuilder := NewBuilder(eb)
		els(eBuilder)
		eBuilder.Create(OpSCFYield, nil, nil)
	}
	return op
}

// Br creates cf.br to dest with block arguments.
func (b *Builder) Br(dest *Block, args ...*Value) *Op {
	op := b.Create(OpBr, args, nil)
	op.Succs = []*Block{dest}
	return op
}

// CondBr creates cf.cond_br.
func (b *Builder) CondBr(cond *Value, t *Block, tArgs []*Value, f *Block, fArgs []*Value) *Op {
	operands := append([]*Value{cond}, tArgs...)
	operands = append(operands, fArgs...)
	op := b.Create(OpCondBr, operands, nil)
	op.Succs = []*Block{t, f}
	op.SetAttr(AttrTrueCount, I(int64(len(tArgs))))
	op.SetAttr(AttrFalseCount, I(int64(len(fArgs))))
	return op
}
