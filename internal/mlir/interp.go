package mlir

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/llvm/interp"
)

// ErrFuel is returned when an interpretation exceeds its step budget —
// the signal that a (possibly corrupted) module diverged into an infinite
// loop instead of terminating. Callers distinguish it from semantic errors
// with errors.Is.
var ErrFuel = errors.New("mlir interp: out of fuel")

// DefaultFuel bounds the number of ops a single Interpret call may
// execute. Generous for every polybench preset, small enough that a
// miscompiled loop nest cannot hang a differential run.
const DefaultFuel = 200_000_000

// MemBuf is a flat row-major buffer backing a memref during interpretation.
type MemBuf struct {
	Ty *Type
	F  []float64 // used when the element type is float
	I  []int64   // used when the element type is int/index
}

// MemBufBytes returns the bytes NewMemBuf allocates for a static memref
// type, eight per element, or -1 when a dimension is negative or the size
// overflows int64 — the form interp.MemBudget.Take expects.
func MemBufBytes(ty *Type) int64 {
	n := int64(8)
	for _, d := range ty.Shape {
		if d < 0 || (d > 0 && n > math.MaxInt64/d) {
			return -1
		}
		n *= d
	}
	return n
}

// NewMemBuf allocates a zeroed buffer for a static memref type.
func NewMemBuf(ty *Type) *MemBuf {
	if !ty.HasStaticShape() {
		panic("mlir: NewMemBuf requires a static memref type")
	}
	n := ty.NumElements()
	b := &MemBuf{Ty: ty}
	if ty.Elem.IsFloat() {
		b.F = make([]float64, n)
	} else {
		b.I = make([]int64, n)
	}
	return b
}

// Interpret executes the named function on the given memref arguments,
// mutating them in place. Scalar arguments and results are not supported
// (the HLS kernels communicate exclusively through memrefs). Both
// structured (affine/scf) and cf-lowered multi-block bodies execute;
// execution is bounded by DefaultFuel.
func (m *Module) Interpret(funcName string, args ...*MemBuf) error {
	return m.InterpretWithFuel(funcName, DefaultFuel, args...)
}

// InterpretWithFuel is Interpret with an explicit step budget; exceeding
// it returns an error satisfying errors.Is(err, ErrFuel).
func (m *Module) InterpretWithFuel(funcName string, fuel int64, args ...*MemBuf) error {
	p, err := m.Compile(funcName)
	if err != nil {
		return err
	}
	return p.Run(context.TODO(), fuel, args...)
}

// Program is a function compiled for execution. It is made only of plain
// values: ops become instructions over dense value slots, predicates are
// enums, float element widths are resolved, affine maps are flattened into
// slot arithmetic, structured loops into counted jumps, and cf branches
// into moves onto their successors' block arguments. Two programs with the
// same Digest execute identically on identical buffers.
type Program struct {
	args   []*Type // entry ABI: the argument types
	nslots int32
	code   []minst
	idx    []int32  // index slot lists of loads and stores
	consts []mconst // affine constants, loaded before the run
	types  []*Type  // allocation types

	// Diagnostics only; never part of program identity.
	name string
	errs []error
}

// programs holds released programs; Compile fills their storage.
var programs sync.Pool

// Release hands the program's storage to a later Compile. The caller must
// hold the only reference: a released program must not be used again.
func (p *Program) Release() {
	if p != nil {
		programs.Put(p)
	}
}

// digestBufs holds the buffers Digest encodes programs into.
var digestBufs = sync.Pool{New: func() any { return new([]byte) }}

// Digest returns the SHA-256 of what the program executes: the argument
// types, the slot count, the code, the index lists, the constants (floats
// by bit pattern, inside the code) and the allocation types. Every list is
// length-prefixed and a type is encoded by exactly what Type.Equal
// compares, so two programs have the same digest exactly when those fields
// are equal. Attributes the interpreter never reads (hls.* directives),
// value names and diagnostics never reach the digest.
func (p *Program) Digest() [sha256.Size]byte {
	bp := digestBufs.Get().(*[]byte)
	le := binary.LittleEndian
	b := le.AppendUint32((*bp)[:0], uint32(len(p.args)))
	for _, t := range p.args {
		b = appendType(b, t)
	}
	b = le.AppendUint32(b, uint32(p.nslots))
	b = le.AppendUint32(b, uint32(len(p.code)))
	for _, in := range p.code {
		b = append(b, byte(in.op), in.sub)
		b = le.AppendUint32(b, uint32(in.dst))
		b = le.AppendUint32(b, uint32(in.a))
		b = le.AppendUint32(b, uint32(in.b))
		b = le.AppendUint32(b, uint32(in.c))
		b = le.AppendUint64(b, uint64(in.imm))
	}
	b = le.AppendUint32(b, uint32(len(p.idx)))
	for _, x := range p.idx {
		b = le.AppendUint32(b, uint32(x))
	}
	b = le.AppendUint32(b, uint32(len(p.consts)))
	for _, c := range p.consts {
		b = le.AppendUint32(b, uint32(c.slot))
		b = le.AppendUint64(b, uint64(c.v))
	}
	b = le.AppendUint32(b, uint32(len(p.types)))
	for _, t := range p.types {
		b = appendType(b, t)
	}
	sum := sha256.Sum256(b)
	*bp = b
	digestBufs.Put(bp)
	return sum
}

// appendType encodes t by the fields Type.Equal compares: the kind, the
// width of an integer or float, and a memref's rank, dimensions and element
// type.
func appendType(b []byte, t *Type) []byte {
	if t == nil {
		return append(b, 0xff)
	}
	b = append(b, byte(t.Kind))
	switch t.Kind {
	case KindInt, KindFloat:
		b = binary.LittleEndian.AppendUint32(b, uint32(t.Width))
	case KindMemRef:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Shape)))
		for _, d := range t.Shape {
			b = binary.LittleEndian.AppendUint64(b, uint64(d))
		}
		b = appendType(b, t.Elem)
	}
	return b
}

type mop uint8

const (
	mCharge  mop = iota // charge imm fuel
	mJmp                // pc = a
	mBrFalse            // pc = b if regs[a].i == 0
	mCondBr             // pc = b if regs[a].i != 0 else c
	mRet
	mMov   // regs[dst] = regs[a]
	mError // fail with errs[c]

	mConstI // {i: imm}
	mConstF // {f: bits imm}
	mAddI
	mSubI
	mMulI
	mDivSI
	mRemSI
	mMinSI
	mMaxSI
	mAddImm // affine arithmetic against a constant: {i: a op imm}
	mMulImm
	mModImm
	mFloorDivImm
	mCeilDivImm
	mMod // affine arithmetic between slots
	mFloorDiv
	mCeilDiv

	mAddF32
	mAddF64
	mSubF32
	mSubF64
	mMulF32
	mMulF64
	mDivF32
	mDivF64
	mNegF
	mSqrt
	mExp32
	mExp64
	mCmpI // sub: predicate
	mCmpF
	mSelect
	mIntOnly   // {i}
	mSIToFP    // {f: float64(i)}
	mFPToSI    // {i: int64(f)}
	mTruncF32  // {f rounded to f32}
	mFloatOnly // {f}
	mAlloc     // buffer of types[c]
	mLoad      // dst ← memref b at indices idx[c:c+imm]; sub: op name
	mStore     // value a → memref b at indices idx[c:c+imm]; sub: op name
	mLoop      // counter a < bound b: iv dst = counter, charge imm; else pc = c
	mNextImm   // counter a += imm; pc = b
	mNext      // counter a += regs[c].i; pc = b
	mCheckStep // trap unless regs[a].i > 0
)

// Predicates.
const (
	pEQ uint8 = iota
	pNE
	pSLT
	pSLE
	pSGT
	pSGE
)

const (
	pOEQ uint8 = iota
	pONE
	pOLT
	pOLE
	pOGT
	pOGE
)

// cmpIPred and cmpFPred resolve a comparison predicate's spelling.
func cmpIPred(name string) (uint8, bool) {
	switch name {
	case PredEQ:
		return pEQ, true
	case PredNE:
		return pNE, true
	case PredSLT:
		return pSLT, true
	case PredSLE:
		return pSLE, true
	case PredSGT:
		return pSGT, true
	case PredSGE:
		return pSGE, true
	}
	return 0, false
}

func cmpFPred(name string) (uint8, bool) {
	switch name {
	case PredOEQ:
		return pOEQ, true
	case PredONE:
		return pONE, true
	case PredOLT:
		return pOLT, true
	case PredOLE:
		return pOLE, true
	case PredOGT:
		return pOGT, true
	case PredOGE:
		return pOGE, true
	}
	return 0, false
}

// accessNames spells a load or store instruction's op for diagnostics.
var accessNames = [...]string{OpLoad, OpStore, OpAffineLoad, OpAffineStore}

// minst is one program instruction.
type minst struct {
	op           mop
	sub          uint8
	dst, a, b, c int32
	imm          int64
}

// mconst is an integer constant loaded into its slot before the run.
type mconst struct {
	slot int32
	v    int64
}

// interpVal is a dynamically-typed interpreter value. A memref is buf, an
// index into the run's buffer table (0: none); a value holds no Go
// pointer, so writing a register needs no GC write barrier.
type interpVal struct {
	i   int64
	f   float64
	buf int32
}

// Compile compiles the named function. It fails only when the function or
// its body does not exist; an op the interpreter cannot execute compiles
// to an instruction that reports the error when it is reached.
func (m *Module) Compile(funcName string) (*Program, error) {
	p, _ := programs.Get().(*Program)
	if p == nil {
		p = new(Program)
	}
	if err := m.compile(p, funcName); err != nil {
		programs.Put(p)
		return nil, err
	}
	return p, nil
}

// compile fills p with the named function, reusing p's storage.
func (m *Module) compile(p *Program, funcName string) error {
	f := m.FindFunc(funcName)
	if f == nil {
		return fmt.Errorf("interp: function %q not found", funcName)
	}
	body := FuncBody(f)
	if body == nil {
		return fmt.Errorf("interp: function %q has no body", funcName)
	}
	c := newCompiler(p, funcName, countOps(f))
	defer c.release()
	for _, a := range body.Args {
		p.args = append(p.args, a.Type())
		c.slot(a)
	}
	if blocks := f.Regions[0].Blocks; len(blocks) == 1 {
		c.charge(len(body.Ops))
		c.ops(body.Ops)
		c.emit(minst{op: mRet})
	} else {
		c.cfg(blocks)
	}
	return nil
}

// countOps counts the ops nested in op.
func countOps(op *Op) int {
	n := 0
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			n += len(b.Ops)
			for _, o := range b.Ops {
				if len(o.Regions) > 0 {
					n += countOps(o)
				}
			}
		}
	}
	return n
}

// compiler builds one Program. Its tables are scratch, reused through
// compilers.
type compiler struct {
	p      *Program
	slots  map[*Value]int32
	consts map[int64]int32

	// cfg's tables: block indices, branch fields to patch, block labels,
	// and the moves of the edge being compiled.
	index      map[*Block]int
	patches    []cfgPatch
	labels     []int32
	srcs, dsts []int32
}

// cfgPatch records a jump to fill with a block's label.
type cfgPatch struct {
	pc int32
	to *Block
}

var compilers sync.Pool

// newCompiler returns a compiler filling p, emptied, for the named
// function of about n ops.
func newCompiler(p *Program, name string, n int) *compiler {
	// Every field is reset: the ones Equal reads and the diagnostics alike.
	// Size the code once: an op compiles to about one instruction. Entries
	// past the length still reference an old module's values.
	clear(p.args[:cap(p.args)])
	clear(p.types[:cap(p.types)])
	clear(p.errs[:cap(p.errs)])
	*p = Program{
		args: p.args[:0], code: slices.Grow(p.code[:0], n+n/2), idx: p.idx[:0],
		consts: p.consts[:0], types: p.types[:0], name: name, errs: p.errs[:0],
	}
	c, _ := compilers.Get().(*compiler)
	if c == nil {
		c = &compiler{slots: map[*Value]int32{}, consts: map[int64]int32{}, index: map[*Block]int{}}
	}
	c.p = p
	return c
}

// release empties the compiler's tables and pools it.
func (c *compiler) release() {
	clear(c.slots)
	clear(c.consts)
	clear(c.index)
	clear(c.patches[:cap(c.patches)])
	c.p, c.patches = nil, c.patches[:0]
	compilers.Put(c)
}

// slot returns v's value slot, allocating it on first sight.
func (c *compiler) slot(v *Value) int32 {
	if s, ok := c.slots[v]; ok {
		return s
	}
	s := c.fresh()
	c.slots[v] = s
	return s
}

// fresh allocates an anonymous slot.
func (c *compiler) fresh() int32 {
	c.p.nslots++
	return c.p.nslots - 1
}

// constant returns a slot preloaded with v.
func (c *compiler) constant(v int64) int32 {
	if s, ok := c.consts[v]; ok {
		return s
	}
	s := c.fresh()
	c.consts[v] = s
	c.p.consts = append(c.p.consts, mconst{slot: s, v: v})
	return s
}

func (c *compiler) pc() int32 { return int32(len(c.p.code)) }

func (c *compiler) emit(in minst) int32 {
	c.p.code = append(c.p.code, in)
	return c.pc() - 1
}

// fail emits an instruction that fails with err when reached.
func (c *compiler) fail(format string, args ...any) {
	c.p.errs = append(c.p.errs, fmt.Errorf(format, args...))
	c.emit(minst{op: mError, c: int32(len(c.p.errs) - 1)})
}

// charge emits the fuel cost of n ops.
func (c *compiler) charge(n int) {
	if n > 0 {
		c.emit(minst{op: mCharge, imm: int64(n)})
	}
}

func (c *compiler) ops(ops []*Op) {
	for _, op := range ops {
		c.op(op)
	}
}

// shape returns the operand and result counts the interpreter reads of an
// op; an op with fewer compiles to an error.
func shape(name string) (operands, results int, ok bool) {
	switch name {
	case OpAlloc, OpAlloca, OpAffineApply, OpConstant:
		return 0, 1, true
	case OpNegF, OpMathSqrt, OpMathExp, OpIndexCast, OpSIToFP, OpFPToSI, OpExtF, OpTruncF, OpLoad, OpAffineLoad:
		return 1, 1, true
	case OpAddI, OpSubI, OpMulI, OpDivSI, OpRemSI, OpMinSI, OpMaxSI, OpAddF, OpSubF, OpMulF, OpDivF, OpCmpI, OpCmpF:
		return 2, 1, true
	case OpSelect:
		return 3, 1, true
	case OpStore, OpAffineStore:
		return 2, 0, true
	case OpSCFFor:
		return 3, 0, true
	case OpSCFIf:
		return 1, 0, true
	}
	return 0, 0, false
}

// intOp returns the program opcode of an integer binary op.
func intOp(name string) (mop, bool) {
	switch name {
	case OpAddI:
		return mAddI, true
	case OpSubI:
		return mSubI, true
	case OpMulI:
		return mMulI, true
	case OpDivSI:
		return mDivSI, true
	case OpRemSI:
		return mRemSI, true
	case OpMinSI:
		return mMinSI, true
	case OpMaxSI:
		return mMaxSI, true
	}
	return 0, false
}

// floatOp returns the program opcodes of a float binary op, at double then
// single precision.
func floatOp(name string) ([2]mop, bool) {
	switch name {
	case OpAddF:
		return [2]mop{mAddF64, mAddF32}, true
	case OpSubF:
		return [2]mop{mSubF64, mSubF32}, true
	case OpMulF:
		return [2]mop{mMulF64, mMulF32}, true
	case OpDivF:
		return [2]mop{mDivF64, mDivF32}, true
	}
	return [2]mop{}, false
}

// isF32 reports whether results of type t round to single precision.
func isF32(t *Type) bool { return t != nil && t.IsFloat() && t.Width == 32 }

// op compiles one op of a structured block.
func (c *compiler) op(op *Op) {
	if nops, nres, ok := shape(op.Name); ok && (len(op.Operands) < nops || len(op.Results) < nres) {
		c.fail("interp: %s with %d operands and %d results", op.Name, len(op.Operands), len(op.Results))
		return
	}
	operand := func(i int) int32 { return c.slot(op.Operands[i]) }
	result := func() int32 { return c.slot(op.Results[0]) }
	unary := func(o mop) { c.emit(minst{op: o, dst: result(), a: operand(0)}) }
	if o, ok := intOp(op.Name); ok {
		c.emit(minst{op: o, dst: result(), a: operand(0), b: operand(1)})
		return
	}
	if pair, ok := floatOp(op.Name); ok {
		o := pair[0]
		if isF32(op.Results[0].Type()) {
			o = pair[1]
		}
		c.emit(minst{op: o, dst: result(), a: operand(0), b: operand(1)})
		return
	}
	switch op.Name {
	case OpConstant:
		switch a := op.Attr(AttrValue).(type) {
		case IntAttr:
			c.emit(minst{op: mConstI, dst: result(), imm: a.Value})
		case FloatAttr:
			c.emit(minst{op: mConstF, dst: result(), imm: int64(math.Float64bits(a.Value))})
		}
	case OpNegF:
		unary(mNegF)
	case OpMathSqrt:
		unary(mSqrt)
	case OpMathExp:
		if isF32(op.Results[0].Type()) {
			unary(mExp32)
		} else {
			unary(mExp64)
		}
	case OpCmpI, OpCmpF:
		resolve, o := cmpIPred, mCmpI
		if op.Name == OpCmpF {
			resolve, o = cmpFPred, mCmpF
		}
		name, _ := op.StringAttr(AttrPredicate)
		pred, ok := resolve(name)
		if !ok {
			c.fail("interp: unsupported %s predicate %q", op.Name, name)
			return
		}
		c.emit(minst{op: o, sub: pred, dst: result(), a: operand(0), b: operand(1)})
	case OpSelect:
		c.emit(minst{op: mSelect, dst: result(), a: operand(0), b: operand(1), c: operand(2)})
	case OpIndexCast:
		unary(mIntOnly)
	case OpSIToFP:
		unary(mSIToFP)
	case OpFPToSI:
		unary(mFPToSI)
	case OpExtF:
		unary(mMov)
	case OpTruncF:
		if isF32(op.Results[0].Type()) {
			unary(mTruncF32)
		} else {
			unary(mFloatOnly)
		}
	case OpAlloc, OpAlloca:
		c.p.types = append(c.p.types, op.Results[0].Type())
		c.emit(minst{op: mAlloc, dst: result(), c: int32(len(c.p.types) - 1)})
	case OpDealloc, OpAffineYield, OpSCFYield, OpReturn:
	case OpLoad:
		c.access(mLoad, 0, result(), -1, operand(0), op.Operands[1:], nil)
	case OpStore:
		c.access(mStore, 1, -1, operand(0), operand(1), op.Operands[2:], nil)
	case OpAffineLoad:
		v := AffineAccessView{op}
		c.access(mLoad, 2, result(), -1, c.slot(v.MemRef()), v.MapOperands(), v.Map())
	case OpAffineStore:
		v := AffineAccessView{op}
		c.access(mStore, 3, -1, c.slot(v.StoredValue()), c.slot(v.MemRef()), v.MapOperands(), v.Map())
	case OpAffineApply:
		m, _ := op.MapAttr(AttrMap)
		if s, ok := c.mapResult(m, 0, op.Operands); ok {
			c.emit(minst{op: mMov, dst: result(), a: s})
		}
	case OpAffineFor:
		c.affineFor(op)
	case OpSCFFor:
		body, ok := c.loopBody(op)
		if !ok {
			return
		}
		ctr, hi, step := c.fresh(), c.fresh(), c.fresh()
		c.emit(minst{op: mMov, dst: ctr, a: operand(0)})
		c.emit(minst{op: mMov, dst: hi, a: operand(1)})
		c.emit(minst{op: mMov, dst: step, a: operand(2)})
		c.emit(minst{op: mCheckStep, a: step})
		c.loop(ctr, hi, body, minst{op: mNext, a: ctr, c: step})
	case OpSCFIf:
		c.scfIf(op)
	case OpCall:
		c.fail("interp: func.call is not supported")
	default:
		c.fail("interp: unsupported op %s", op.Name)
	}
}

// access compiles a load or store: the index slots (map results, or the
// operands themselves without a map) then the access.
func (c *compiler) access(o mop, name uint8, dst, v, mem int32, operands []*Value, m *AffineMap) {
	start := len(c.p.idx)
	if m == nil {
		for _, x := range operands {
			c.p.idx = append(c.p.idx, c.slot(x))
		}
	} else {
		for k := range m.Exprs {
			s, ok := c.mapResult(m, k, operands)
			if !ok {
				c.p.idx = c.p.idx[:start]
				return
			}
			c.p.idx = append(c.p.idx, s)
		}
	}
	c.emit(minst{op: o, sub: name, dst: dst, a: v, b: mem, c: int32(start), imm: int64(len(c.p.idx) - start)})
}

// mapResult flattens result k of m over operands into slot arithmetic and
// returns the slot holding it.
func (c *compiler) mapResult(m *AffineMap, k int, operands []*Value) (int32, bool) {
	switch {
	case m == nil:
		c.fail("interp: affine op without a map")
		return 0, false
	case len(operands) != m.NumDims+m.NumSyms:
		c.fail("interp: affine map %s applied to %d operands", m, len(operands))
		return 0, false
	case k >= len(m.Exprs):
		c.fail("interp: affine map %s has no result %d", m, k)
		return 0, false
	}
	return c.expr(m.Exprs[k], m.NumDims, operands), true
}

// expr compiles one affine expression; dims and symbols read the operand
// slots directly, constants are preloaded.
func (c *compiler) expr(e *AffineExpr, numDims int, operands []*Value) int32 {
	switch e.Kind {
	case AffineDim:
		return c.slot(operands[e.Pos])
	case AffineSym:
		return c.slot(operands[numDims+e.Pos])
	case AffineConst:
		return c.constant(e.Val)
	}
	l := c.expr(e.LHS, numDims, operands)
	dst := c.fresh()
	if e.RHS.IsConst() {
		c.emit(minst{op: affineImmOps[e.Kind], dst: dst, a: l, imm: e.RHS.Val})
		return dst
	}
	r := c.expr(e.RHS, numDims, operands)
	c.emit(minst{op: affineOps[e.Kind], dst: dst, a: l, b: r})
	return dst
}

// affineImmOps and affineOps implement the binary affine expression kinds
// against a constant and between two slots.
var (
	affineImmOps = map[AffineExprKind]mop{AffineAdd: mAddImm, AffineMul: mMulImm, AffineMod: mModImm,
		AffineFloorDiv: mFloorDivImm, AffineCeilDiv: mCeilDivImm}
	affineOps = map[AffineExprKind]mop{AffineAdd: mAddI, AffineMul: mMulI, AffineMod: mMod,
		AffineFloorDiv: mFloorDiv, AffineCeilDiv: mCeilDiv}
)

// loopBody returns a loop op's body block, which must bind the induction
// variable.
func (c *compiler) loopBody(op *Op) (*Block, bool) {
	if len(op.Regions) == 0 || len(op.Regions[0].Blocks) == 0 || len(op.Regions[0].Blocks[0].Args) == 0 {
		c.fail("interp: %s without a body binding its induction variable", op.Name)
		return nil, false
	}
	return op.Regions[0].Blocks[0], true
}

func (c *compiler) affineFor(op *Op) {
	fv := AffineForView{Op: op}
	n, _ := op.IntAttr(AttrLBCount)
	if n < 0 || n > int64(len(op.Operands)) {
		c.fail("interp: affine.for lower-bound operand count %d out of range", n)
		return
	}
	body, ok := c.loopBody(op)
	if !ok {
		return
	}
	lo, ok := c.mapResult(fv.LowerMap(), 0, fv.LowerOperands())
	if !ok {
		return
	}
	hi, ok := c.mapResult(fv.UpperMap(), 0, fv.UpperOperands())
	if !ok {
		return
	}
	// The bounds are read once, on entry, as the loop header evaluates them.
	ctr, bound := c.fresh(), c.fresh()
	c.emit(minst{op: mMov, dst: ctr, a: lo})
	c.emit(minst{op: mMov, dst: bound, a: hi})
	c.loop(ctr, bound, body, minst{op: mNextImm, a: ctr, imm: fv.Step()})
}

// loop emits a counted loop over body: the header binds the induction
// variable and charges one iteration (at least one step, so fuel and the
// context bound even a body without ops), next advances the counter and
// jumps back.
func (c *compiler) loop(ctr, bound int32, body *Block, next minst) {
	head := c.emit(minst{op: mLoop, dst: c.slot(body.Args[0]), a: ctr, b: bound, imm: int64(max(len(body.Ops), 1))})
	c.ops(body.Ops)
	next.b = head
	c.emit(next)
	c.p.code[head].c = c.pc()
}

func (c *compiler) scfIf(op *Op) {
	branch := func(r int) *Block {
		if r >= len(op.Regions) || len(op.Regions[r].Blocks) == 0 {
			return nil
		}
		return op.Regions[r].Blocks[0]
	}
	then, els := branch(0), branch(1)
	if then == nil || (len(op.Regions) > 1 && els == nil) {
		c.fail("interp: scf.if without its branch blocks")
		return
	}
	br := c.emit(minst{op: mBrFalse, a: c.slot(op.Operands[0])})
	c.charge(len(then.Ops))
	c.ops(then.Ops)
	if els == nil {
		c.p.code[br].b = c.pc()
		return
	}
	jmp := c.emit(minst{op: mJmp})
	c.p.code[br].b = c.pc()
	c.charge(len(els.Ops))
	c.ops(els.Ops)
	c.p.code[jmp].a = c.pc()
}

// cfg compiles a cf-lowered multi-block body: every op of a block but the
// last runs in order, and the last transfers control, binding its operands
// to the successor's block arguments (the SSA form of phi nodes).
func (c *compiler) cfg(blocks []*Block) {
	for i, b := range blocks {
		c.index[b] = i
	}
	// edge binds the operands to the target's arguments and jumps there.
	edge := func(to *Block, operands []*Value) {
		if _, ok := c.index[to]; !ok {
			c.fail("interp: branch to a block outside the function")
			return
		}
		srcs, dsts := c.srcs[:0], c.dsts[:0]
		for i := range min(len(operands), len(to.Args)) {
			srcs, dsts = append(srcs, c.slot(operands[i])), append(dsts, c.slot(to.Args[i]))
		}
		c.srcs, c.dsts = srcs, dsts
		// Operands are read before any argument is overwritten, so a latch
		// that passes the target's current arguments binds the pre-branch
		// values.
		for _, d := range dsts {
			if slices.Contains(srcs, d) {
				for i, s := range srcs {
					srcs[i] = c.fresh()
					c.emit(minst{op: mMov, dst: srcs[i], a: s})
				}
				break
			}
		}
		for i, d := range dsts {
			c.emit(minst{op: mMov, dst: d, a: srcs[i]})
		}
		c.patches = append(c.patches, cfgPatch{c.emit(minst{op: mJmp}), to})
	}
	c.labels = slices.Grow(c.labels[:0], len(blocks))[:len(blocks)]
	for i, b := range blocks {
		c.labels[i] = c.pc()
		n := len(b.Ops)
		if n == 0 {
			c.fail("interp: block without terminator")
			continue
		}
		c.charge(n)
		c.ops(b.Ops[:n-1])
		term := b.Ops[n-1]
		switch term.Name {
		case OpReturn:
			c.emit(minst{op: mRet})
		case OpBr:
			if len(term.Succs) != 1 {
				c.fail("interp: cf.br with %d successors", len(term.Succs))
				continue
			}
			edge(term.Succs[0], term.Operands)
		case OpCondBr:
			if len(term.Succs) != 2 {
				c.fail("interp: cf.cond_br with %d successors", len(term.Succs))
				continue
			}
			tc, _ := term.IntAttr(AttrTrueCount)
			fc, _ := term.IntAttr(AttrFalseCount)
			if tc < 0 || fc < 0 || int64(len(term.Operands)) != 1+tc+fc {
				c.fail("interp: cf.cond_br operand segments disagree with operand count")
				continue
			}
			br := c.emit(minst{op: mCondBr, a: c.slot(term.Operands[0])})
			c.p.code[br].b = c.pc()
			edge(term.Succs[0], term.Operands[1:1+tc])
			c.p.code[br].c = c.pc()
			edge(term.Succs[1], term.Operands[1+tc:])
		default:
			c.fail("interp: unsupported cf terminator %s", term.Name)
		}
	}
	for _, pt := range c.patches {
		c.p.code[pt.pc].a = c.labels[c.index[pt.to]]
	}
}

// Run executes the program on args, mutating them in place, under a step
// budget; exceeding it returns an error satisfying errors.Is(err,
// ErrFuel). ctx (nil for none) is polled at loop back-edges and block
// entries once per fuel quantum; a done context stops the run with its
// error.
func (p *Program) Run(ctx context.Context, fuel int64, args ...*MemBuf) error {
	if len(args) != len(p.args) {
		return fmt.Errorf("interp: %q takes %d args, got %d", p.name, len(p.args), len(args))
	}
	for i, t := range p.args {
		if !t.IsMemRef() {
			return fmt.Errorf("interp: argument %d is not a memref", i)
		}
		if !t.Equal(args[i].Ty) {
			return fmt.Errorf("interp: argument %d type mismatch: %s vs %s", i, t, args[i].Ty)
		}
	}
	r := runner{p: p, fuel: interp.NewMeter(ctx, fuel, ErrFuel)}
	return r.run(args)
}

type runner struct {
	p      *Program
	fuel   interp.Meter
	budget interp.MemBudget
	st     *runState
}

// runState is the storage a run works in: the register file and the
// buffer table. Runs reuse it through runStates.
type runState struct {
	regs []interpVal
	bufs []*MemBuf // bufs[0] is none
}

var runStates sync.Pool

// alloc enters b into the buffer table and returns its index.
func (st *runState) alloc(b *MemBuf) int32 {
	st.bufs = append(st.bufs, b)
	return int32(len(st.bufs) - 1)
}

func trap(kind interp.TrapKind, format string, args ...any) error {
	return &interp.Trap{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

func (r *runner) run(args []*MemBuf) error {
	st, _ := runStates.Get().(*runState)
	if st == nil {
		st = &runState{}
	}
	r.st = st
	err := r.exec(args)
	// The table must not pin the caller's buffers while pooled.
	clear(st.bufs)
	st.bufs = st.bufs[:0]
	runStates.Put(st)
	r.st = nil
	return err
}

func (r *runner) exec(args []*MemBuf) error {
	p, st := r.p, r.st
	st.regs = slices.Grow(st.regs[:0], int(p.nslots))[:p.nslots]
	regs := st.regs
	clear(regs)
	st.bufs = append(st.bufs[:0], nil)
	for i, a := range args {
		if err := r.budget.Take(8*int64(len(a.F)+len(a.I)), "argument memory"); err != nil {
			return err
		}
		regs[i] = interpVal{buf: st.alloc(a)}
	}
	for _, k := range p.consts {
		regs[k.slot] = interpVal{i: k.v}
	}
	code, idx := p.code, p.idx
	for pc := int32(0); ; {
		in := &code[pc]
		pc++
		switch in.op {
		case mCharge:
			if err := r.fuel.Charge(in.imm); err != nil {
				return err
			}
		case mJmp:
			pc = in.a
		case mBrFalse:
			if regs[in.a].i == 0 {
				pc = in.b
			}
		case mCondBr:
			if regs[in.a].i != 0 {
				pc = in.b
			} else {
				pc = in.c
			}
		case mRet:
			return nil
		case mMov:
			regs[in.dst] = regs[in.a]
		case mError:
			return p.errs[in.c]

		case mConstI:
			regs[in.dst] = interpVal{i: in.imm}
		case mConstF:
			regs[in.dst] = interpVal{f: math.Float64frombits(uint64(in.imm))}
		case mAddI:
			regs[in.dst] = interpVal{i: regs[in.a].i + regs[in.b].i}
		case mSubI:
			regs[in.dst] = interpVal{i: regs[in.a].i - regs[in.b].i}
		case mMulI:
			regs[in.dst] = interpVal{i: regs[in.a].i * regs[in.b].i}
		case mDivSI:
			d := regs[in.b].i
			if d == 0 {
				return trap(interp.TrapDivZero, "division by zero")
			}
			regs[in.dst] = interpVal{i: regs[in.a].i / d}
		case mRemSI:
			d := regs[in.b].i
			if d == 0 {
				return trap(interp.TrapDivZero, "remainder by zero")
			}
			regs[in.dst] = interpVal{i: regs[in.a].i % d}
		case mMinSI:
			regs[in.dst] = interpVal{i: min(regs[in.a].i, regs[in.b].i)}
		case mMaxSI:
			regs[in.dst] = interpVal{i: max(regs[in.a].i, regs[in.b].i)}
		case mAddImm:
			regs[in.dst] = interpVal{i: regs[in.a].i + in.imm}
		case mMulImm:
			regs[in.dst] = interpVal{i: regs[in.a].i * in.imm}
		case mModImm, mFloorDivImm, mCeilDivImm, mMod, mFloorDiv, mCeilDiv:
			l, d := regs[in.a].i, in.imm
			if in.op >= mMod {
				d = regs[in.b].i
			}
			if d == 0 {
				return trap(interp.TrapDivZero, "affine division by zero")
			}
			switch in.op {
			case mModImm, mMod:
				regs[in.dst] = interpVal{i: floorMod(l, d)}
			case mFloorDivImm, mFloorDiv:
				regs[in.dst] = interpVal{i: floorDiv(l, d)}
			default:
				regs[in.dst] = interpVal{i: ceilDiv(l, d)}
			}

		case mAddF32:
			regs[in.dst] = interpVal{f: float64(float32(regs[in.a].f + regs[in.b].f))}
		case mAddF64:
			regs[in.dst] = interpVal{f: regs[in.a].f + regs[in.b].f}
		case mSubF32:
			regs[in.dst] = interpVal{f: float64(float32(regs[in.a].f - regs[in.b].f))}
		case mSubF64:
			regs[in.dst] = interpVal{f: regs[in.a].f - regs[in.b].f}
		case mMulF32:
			regs[in.dst] = interpVal{f: float64(float32(regs[in.a].f * regs[in.b].f))}
		case mMulF64:
			regs[in.dst] = interpVal{f: regs[in.a].f * regs[in.b].f}
		case mDivF32:
			regs[in.dst] = interpVal{f: float64(float32(regs[in.a].f / regs[in.b].f))}
		case mDivF64:
			regs[in.dst] = interpVal{f: regs[in.a].f / regs[in.b].f}
		case mNegF:
			regs[in.dst] = interpVal{f: -regs[in.a].f}
		case mSqrt:
			regs[in.dst] = interpVal{f: math.Sqrt(regs[in.a].f)}
		case mExp32:
			regs[in.dst] = interpVal{f: float64(float32(math.Exp(regs[in.a].f)))}
		case mExp64:
			regs[in.dst] = interpVal{f: math.Exp(regs[in.a].f)}
		case mCmpI:
			regs[in.dst] = interpVal{i: boolToInt(intPred(in.sub, regs[in.a].i, regs[in.b].i))}
		case mCmpF:
			regs[in.dst] = interpVal{i: boolToInt(floatPred(in.sub, regs[in.a].f, regs[in.b].f))}
		case mSelect:
			if regs[in.a].i != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case mIntOnly:
			regs[in.dst] = interpVal{i: regs[in.a].i}
		case mSIToFP:
			regs[in.dst] = interpVal{f: float64(regs[in.a].i)}
		case mFPToSI:
			regs[in.dst] = interpVal{i: int64(regs[in.a].f)}
		case mTruncF32:
			regs[in.dst] = interpVal{f: float64(float32(regs[in.a].f))}
		case mFloatOnly:
			regs[in.dst] = interpVal{f: regs[in.a].f}
		case mAlloc:
			t := p.types[in.c]
			if err := r.budget.Take(MemBufBytes(t), "memref.alloc"); err != nil {
				return err
			}
			regs[in.dst] = interpVal{buf: st.alloc(NewMemBuf(t))}

		case mLoad, mStore:
			buf := st.bufs[regs[in.b].buf]
			if buf == nil {
				if in.op == mLoad {
					return fmt.Errorf("interp: load from unmaterialized memref")
				}
				return fmt.Errorf("interp: store to unmaterialized memref")
			}
			ix := idx[in.c : in.c+int32(in.imm)]
			shape := buf.Ty.Shape
			if len(ix) != len(shape) {
				return fmt.Errorf("interp: %s: index rank %d != memref rank %d", accessNames[in.sub], len(ix), len(shape))
			}
			off := int64(0)
			for k, s := range ix {
				x := regs[s].i
				if x < 0 || x >= shape[k] {
					return trap(interp.TrapOOB, "%s: index %d out of bounds [0,%d) in dim %d", accessNames[in.sub], x, shape[k], k)
				}
				off = off*shape[k] + x
			}
			float := buf.Ty.Elem.IsFloat()
			switch {
			case in.op == mLoad && float:
				regs[in.dst] = interpVal{f: buf.F[off]}
			case in.op == mLoad:
				regs[in.dst] = interpVal{i: buf.I[off]}
			case float && buf.Ty.Elem.Width == 32:
				buf.F[off] = float64(float32(regs[in.a].f))
			case float:
				buf.F[off] = regs[in.a].f
			default:
				buf.I[off] = regs[in.a].i
			}

		case mLoop:
			if i := regs[in.a].i; i < regs[in.b].i {
				regs[in.dst] = interpVal{i: i}
				if err := r.fuel.Charge(in.imm); err != nil {
					return err
				}
			} else {
				pc = in.c
			}
		case mNextImm:
			regs[in.a].i += in.imm
			pc = in.b
		case mNext:
			regs[in.a].i += regs[in.c].i
			pc = in.b
		case mCheckStep:
			if regs[in.a].i <= 0 {
				return trap(interp.TrapLoopStep, "non-positive scf.for step %d", regs[in.a].i)
			}
		default:
			panic(fmt.Sprintf("mlir: unknown program opcode %d", in.op))
		}
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func intPred(pred uint8, l, r int64) bool {
	switch pred {
	case pEQ:
		return l == r
	case pNE:
		return l != r
	case pSLT:
		return l < r
	case pSLE:
		return l <= r
	case pSGT:
		return l > r
	default: // pSGE; the compiler admits no other predicate
		return l >= r
	}
}

func floatPred(pred uint8, l, r float64) bool {
	switch pred {
	case pOEQ:
		return l == r
	case pONE:
		return l != r
	case pOLT:
		return l < r
	case pOLE:
		return l <= r
	case pOGT:
		return l > r
	default: // pOGE; the compiler admits no other predicate
		return l >= r
	}
}
