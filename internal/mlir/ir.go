package mlir

import (
	"fmt"
	"sync"
)

// Value is an SSA value: either the result of an op or a block argument.
type Value struct {
	Ty *Type
	// Def is the defining op (nil for block arguments).
	Def *Op
	// Owner is the owning block for block arguments (nil for results).
	Owner *Block
	// ResNo is the result index within Def.
	ResNo int32
	// ArgNo is the argument index within Owner.
	ArgNo int32

	// scope is the number of the verifier walk that has the value in
	// scope (see verifyFunc), a numbering walk's stamp (see numbering), or
	// 0. Both draw on one counter, so neither reads the other's as its own.
	scope uint64
}

// Type returns the value's type.
func (v *Value) Type() *Type { return v.Ty }

// Op is a generic operation: a name, SSA operands and results, an attribute
// dictionary, nested regions, and CFG successors for terminators.
type Op struct {
	Name     string
	Operands []*Value
	Results  []*Value
	// Attrs is the attribute dictionary, sorted by name with each name
	// once, as upstream MLIR's DictionaryAttr stores it. Read and write it
	// through Attr, SetAttr and RemoveAttr, which keep it sorted.
	Attrs   []NamedAttr
	Regions []*Region
	Succs   []*Block

	parent *Block
}

// NamedAttr is one entry of an op's attribute dictionary.
type NamedAttr struct {
	Name  string
	Value Attr
}

// forAttrsCap is the attribute capacity NewOp gives an affine.for: its
// four bound attributes and the four loop directives (pipeline, II,
// unroll, flatten), so marking a loop never grows its list.
const forAttrsCap = 8

// opNode fuses an op, its single result value, and the one-element result
// slice into one allocation — the dominant op shape (arithmetic, loads,
// casts) on the parse/clone hot path.
type opNode struct {
	op      Op
	val     Value
	results [1]*Value
}

// NewOp constructs a detached op with results of the given types. Most ops
// carry no attributes, so their list is allocated by the first SetAttr;
// an affine.for starts with room for forAttrsCap.
func NewOp(name string, operands []*Value, resultTypes []*Type) *Op {
	var op *Op
	if len(resultTypes) == 1 {
		n := &opNode{}
		n.op = Op{Name: name, Operands: operands}
		n.val = Value{Ty: resultTypes[0], Def: &n.op}
		n.results[0] = &n.val
		n.op.Results = n.results[:]
		op = &n.op
	} else {
		op = &Op{Name: name, Operands: operands}
		if len(resultTypes) > 0 {
			vals := make([]Value, len(resultTypes))
			op.Results = make([]*Value, len(resultTypes))
			for i, t := range resultTypes {
				vals[i] = Value{Ty: t, Def: op, ResNo: int32(i)}
				op.Results[i] = &vals[i]
			}
		}
	}
	if name == OpAffineFor {
		op.Attrs = make([]NamedAttr, 0, forAttrsCap)
	}
	return op
}

// Block returns the block containing the op, or nil if detached.
func (o *Op) Block() *Block { return o.parent }

// Result returns result i.
func (o *Op) Result(i int) *Value { return o.Results[i] }

// Attr returns the attribute named key, or nil when the op has none.
func (o *Op) Attr(key string) Attr {
	for _, a := range o.Attrs {
		if a.Name == key {
			return a.Value
		}
	}
	return nil
}

// IntAttr returns the int attribute value for key, with ok reporting presence.
func (o *Op) IntAttr(key string) (int64, bool) {
	a, ok := o.Attr(key).(IntAttr)
	if !ok {
		return 0, false
	}
	return a.Value, true
}

// StringAttr returns the string attribute for key.
func (o *Op) StringAttr(key string) (string, bool) {
	a, ok := o.Attr(key).(StringAttr)
	if !ok {
		return "", false
	}
	return string(a), true
}

// MapAttr returns the affine map attribute for key.
func (o *Op) MapAttr(key string) (*AffineMap, bool) {
	a, ok := o.Attr(key).(AffineMapAttr)
	if !ok {
		return nil, false
	}
	return a.Map, true
}

// HasAttr reports whether key is present.
func (o *Op) HasAttr(key string) bool {
	for _, a := range o.Attrs {
		if a.Name == key {
			return true
		}
	}
	return false
}

// SetAttr sets the attribute named key, replacing any earlier value.
func (o *Op) SetAttr(key string, a Attr) {
	i := 0
	for ; i < len(o.Attrs) && o.Attrs[i].Name < key; i++ {
	}
	if i < len(o.Attrs) && o.Attrs[i].Name == key {
		o.Attrs[i].Value = a
		return
	}
	o.Attrs = append(o.Attrs, NamedAttr{})
	copy(o.Attrs[i+1:], o.Attrs[i:])
	o.Attrs[i] = NamedAttr{Name: key, Value: a}
}

// RemoveAttr deletes the attribute named key, if present.
func (o *Op) RemoveAttr(key string) {
	for i, a := range o.Attrs {
		if a.Name == key {
			n := len(o.Attrs) - 1
			copy(o.Attrs[i:], o.Attrs[i+1:])
			o.Attrs[n] = NamedAttr{}
			o.Attrs = o.Attrs[:n]
			return
		}
	}
}

// RemoveFromBlock unlinks the op from its parent block.
func (o *Op) RemoveFromBlock() {
	if o.parent == nil {
		return
	}
	o.parent.Remove(o)
}

// Erase unlinks the op; results must be unused (not checked here — the
// verifier catches dangling uses).
func (o *Op) Erase() { o.RemoveFromBlock() }

// Dialect returns the dialect prefix of the op name ("arith" for
// "arith.addf"); ops without a dot return the whole name.
func (o *Op) Dialect() string {
	for i := 0; i < len(o.Name); i++ {
		if o.Name[i] == '.' {
			return o.Name[:i]
		}
	}
	return o.Name
}

// IsTerminator reports whether the op terminates a block.
func (o *Op) IsTerminator() bool {
	switch o.Name {
	case OpReturn, OpAffineYield, OpSCFYield, OpBr, OpCondBr, OpSCFCondition:
		return true
	}
	return false
}

// Block is an ordered list of ops with typed arguments.
type Block struct {
	Args []*Value
	Ops  []*Op

	parent *Region
	// num is the block's index in its function's region, written by the
	// walks that number it (see numberBlocks) and trusted only after an
	// identity check.
	num int32
}

// NewBlock constructs a detached block with arguments of the given types.
func NewBlock(argTypes ...*Type) *Block {
	b := &Block{}
	for _, t := range argTypes {
		b.AddArg(t)
	}
	return b
}

// AddArg appends a new block argument of type t and returns it.
func (b *Block) AddArg(t *Type) *Value {
	v := &Value{Ty: t, Owner: b, ArgNo: int32(len(b.Args))}
	b.Args = append(b.Args, v)
	return v
}

// Region returns the region containing the block.
func (b *Block) Region() *Region { return b.parent }

// ParentOp returns the op whose region contains this block, or nil.
func (b *Block) ParentOp() *Op {
	if b.parent == nil {
		return nil
	}
	return b.parent.parent
}

// Append adds op at the end of the block.
func (b *Block) Append(op *Op) {
	op.parent = b
	b.Ops = append(b.Ops, op)
}

// InsertBefore inserts op immediately before ref, which must be in b.
func (b *Block) InsertBefore(op, ref *Op) {
	idx := b.index(ref)
	if idx < 0 {
		panic("mlir: InsertBefore reference op not in block")
	}
	op.parent = b
	b.Ops = append(b.Ops, nil)
	copy(b.Ops[idx+1:], b.Ops[idx:])
	b.Ops[idx] = op
}

// InsertAfter inserts op immediately after ref, which must be in b.
func (b *Block) InsertAfter(op, ref *Op) {
	idx := b.index(ref)
	if idx < 0 {
		panic("mlir: InsertAfter reference op not in block")
	}
	op.parent = b
	b.Ops = append(b.Ops, nil)
	copy(b.Ops[idx+2:], b.Ops[idx+1:])
	b.Ops[idx+1] = op
}

// Remove unlinks op from the block.
func (b *Block) Remove(op *Op) {
	idx := b.index(op)
	if idx < 0 {
		return
	}
	copy(b.Ops[idx:], b.Ops[idx+1:])
	b.Ops = b.Ops[:len(b.Ops)-1]
	op.parent = nil
}

func (b *Block) index(op *Op) int {
	for i, o := range b.Ops {
		if o == op {
			return i
		}
	}
	return -1
}

// Terminator returns the block's final op, or nil when empty.
func (b *Block) Terminator() *Op {
	if len(b.Ops) == 0 {
		return nil
	}
	return b.Ops[len(b.Ops)-1]
}

// Region is an ordered list of blocks owned by an op.
type Region struct {
	Blocks []*Block

	parent *Op
}

// ParentOp returns the op owning the region.
func (r *Region) ParentOp() *Op { return r.parent }

// AddBlock appends a block to the region.
func (r *Region) AddBlock(b *Block) {
	b.parent = r
	r.Blocks = append(r.Blocks, b)
}

// InsertBlockAfter inserts b immediately after ref in the region.
func (r *Region) InsertBlockAfter(b, ref *Block) {
	b.parent = r
	for i, x := range r.Blocks {
		if x == ref {
			r.Blocks = append(r.Blocks, nil)
			copy(r.Blocks[i+2:], r.Blocks[i+1:])
			r.Blocks[i+1] = b
			return
		}
	}
	r.Blocks = append(r.Blocks, b)
}

// SplitBlock moves every op after ref (exclusive) from b into a new block,
// which is inserted right after b in the region, and returns it.
func (b *Block) SplitBlock(ref *Op) *Block {
	idx := b.index(ref)
	if idx < 0 {
		panic("mlir: SplitBlock reference op not in block")
	}
	cont := NewBlock()
	moved := b.Ops[idx+1:]
	b.Ops = b.Ops[:idx+1]
	for _, op := range moved {
		op.parent = cont
		cont.Ops = append(cont.Ops, op)
	}
	b.parent.InsertBlockAfter(cont, b)
	return cont
}

// Entry returns the entry block, or nil when the region is empty.
func (r *Region) Entry() *Block {
	if len(r.Blocks) == 0 {
		return nil
	}
	return r.Blocks[0]
}

// AddRegion appends a fresh region to op and returns it.
func (o *Op) AddRegion() *Region {
	r := &Region{parent: o}
	o.Regions = append(o.Regions, r)
	return r
}

// Module is the top-level container: a builtin.module op with one region
// holding one block of func.func ops.
type Module struct {
	Op *Op

	// claimScope and claimOwner record the last Claim.
	claimScope uint64
	claimOwner string
}

// Claim records owner as the claimant of m within scope, a nonzero number
// the caller picks, and returns "", true. If m was already claimed in the
// same scope it keeps that record and returns its owner and false. The
// engine claims every module a batch's jobs build, to enforce that Build
// returns a fresh module per call; the record lives on the module, so it
// keeps nothing alive. Claim is not synchronized.
func (m *Module) Claim(scope uint64, owner string) (prev string, fresh bool) {
	if m.claimScope == scope {
		return m.claimOwner, false
	}
	m.claimScope, m.claimOwner = scope, owner
	return "", true
}

// NewModule returns an empty module.
func NewModule() *Module {
	op := NewOp(OpModule, nil, nil)
	r := op.AddRegion()
	r.AddBlock(NewBlock())
	return &Module{Op: op}
}

// Body returns the module's single block.
func (m *Module) Body() *Block { return m.Op.Regions[0].Blocks[0] }

// Funcs returns all func.func ops in the module.
func (m *Module) Funcs() []*Op {
	var out []*Op
	for _, op := range m.Body().Ops {
		if op.Name == OpFunc {
			out = append(out, op)
		}
	}
	return out
}

// FindFunc returns the func.func with the given symbol name, or nil.
func (m *Module) FindFunc(name string) *Op {
	for _, f := range m.Body().Ops {
		if n, _ := f.StringAttr(AttrSymName); f.Name == OpFunc && n == name {
			return f
		}
	}
	return nil
}

// walkStack holds the op lists of the blocks a walk is inside: entering a
// block pushes a snapshot of its ops, so callbacks may erase or insert ops
// without disturbing the walk, and leaving it pops them. hi is the highest
// length the stack reached, the range the walk clears before pooling so the
// pool pins no module.
type walkStack struct {
	ops []*Op
	hi  int
}

// walkStacks holds idle walk stacks. A walk nested in a callback takes a
// stack of its own.
var walkStacks sync.Pool

// takeWalkStack returns an empty stack. A walk whose callback panics never
// returns its stack to the pool.
func takeWalkStack() *walkStack {
	s, _ := walkStacks.Get().(*walkStack)
	if s == nil {
		s = &walkStack{}
	}
	s.ops, s.hi = s.ops[:0], 0
	return s
}

func (s *walkStack) release() {
	clear(s.ops[:s.hi])
	s.ops = s.ops[:0]
	walkStacks.Put(s)
}

// push appends a snapshot of b's ops and returns the range it occupies.
func (s *walkStack) push(b *Block) (lo, hi int) {
	lo = len(s.ops)
	s.ops = append(s.ops, b.Ops...)
	hi = len(s.ops)
	s.hi = max(s.hi, hi)
	return lo, hi
}

// Walk visits op and all nested ops in pre-order. Returning false from fn
// skips the op's regions (but continues with siblings).
func Walk(op *Op, fn func(*Op) bool) {
	s := takeWalkStack()
	s.pre(op, fn)
	s.release()
}

func (s *walkStack) pre(op *Op, fn func(*Op) bool) {
	if !fn(op) {
		return
	}
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			lo, hi := s.push(b)
			for i := lo; i < hi; i++ {
				s.pre(s.ops[i], fn)
			}
			s.ops = s.ops[:lo]
		}
	}
}

// WalkPost visits op and all nested ops in post-order.
func WalkPost(op *Op, fn func(*Op)) {
	s := takeWalkStack()
	s.post(op, fn)
	s.release()
}

func (s *walkStack) post(op *Op, fn func(*Op)) {
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			lo, hi := s.push(b)
			for i := lo; i < hi; i++ {
				s.post(s.ops[i], fn)
			}
			s.ops = s.ops[:lo]
		}
	}
	fn(op)
}

// ReplaceAllUses rewrites every use of old with new within root's regions.
func ReplaceAllUses(root *Op, old, niu *Value) {
	Walk(root, func(o *Op) bool {
		for i, v := range o.Operands {
			if v == old {
				o.Operands[i] = niu
			}
		}
		return true
	})
}

// HasUses reports whether v is used by any op under root.
func HasUses(root *Op, v *Value) bool {
	found := false
	Walk(root, func(o *Op) bool {
		if found {
			return false
		}
		for _, ov := range o.Operands {
			if ov == v {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// EnclosingFunc returns the func.func containing the op, or nil.
func EnclosingFunc(op *Op) *Op {
	for o := op; o != nil; {
		if o.Name == OpFunc {
			return o
		}
		if o.parent == nil || o.parent.parent == nil {
			return nil
		}
		o = o.parent.parent.parent
	}
	return nil
}

// FuncName returns the symbol name of a func.func.
func FuncName(f *Op) string {
	n, _ := f.StringAttr(AttrSymName)
	return n
}

// FuncBody returns the entry block of a func.func.
func FuncBody(f *Op) *Block {
	if len(f.Regions) == 0 {
		return nil
	}
	return f.Regions[0].Entry()
}

// String renders a short debug description of the op.
func (o *Op) String() string {
	return fmt.Sprintf("<op %s>", o.Name)
}
