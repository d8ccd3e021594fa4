package llvm

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
)

// Verify checks structural invariants: every block has a terminator,
// branches stay inside the function, phis match their predecessors,
// operand types line up for known ops, and every instruction with a result
// has a unique name. It renumbers each function, so it needs the same
// exclusive access to the module as a pass.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		if err := f.Verify(); err != nil {
			return fmt.Errorf("function @%s: %w", f.Name, err)
		}
	}
	return nil
}

// nameSet is a verification's set of SSA names, kept as their hashes in
// an open-addressing table sized for the function at hand: filling and
// clearing it costs what that function's names cost, and it holds no
// pointer. A name whose hash the set holds already is a duplicate only
// when an earlier name equals it, which the caller checks.
type nameSet struct {
	slots []uint64 // a name's hash with the low bit set; 0 is empty
}

// nameSets holds the name sets of finished verifications.
var nameSets sync.Pool

// nameSeed keys the table's hash, so no input can choose its collisions.
var nameSeed = maphash.MakeSeed()

// takeNameSet returns an empty set with room for n names.
func takeNameSet(n int) *nameSet {
	s, _ := nameSets.Get().(*nameSet)
	if s == nil {
		s = &nameSet{}
	}
	size := 16
	for size < 2*n {
		size <<= 1
	}
	// A verification that panicked may have pooled a filled set.
	s.slots = slices.Grow(s.slots[:0], size)[:size]
	clear(s.slots)
	return s
}

// add records name and reports whether the set held its hash already.
func (s *nameSet) add(name string) (seen bool) {
	h := maphash.String(nameSeed, name) | 1
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = h
			return false
		case h:
			return true
		}
	}
}

// namedBefore reports whether a parameter, or one of the first k
// instructions in block order, is named name.
func (f *Function) namedBefore(name string, k int) bool {
	for _, p := range f.Params {
		if p.Name == name {
			return true
		}
	}
	for _, b := range f.Blocks {
		for _, x := range b.Instrs {
			if k == 0 {
				return false
			}
			k--
			if x.HasResult() && x.Name == name {
				return true
			}
		}
	}
	return false
}

// Verify checks one function.
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	names := takeNameSet(len(f.Params) + f.Renumber())
	defer nameSets.Put(names)
	for i, p := range f.Params {
		if names.add(p.Name) && slices.ContainsFunc(f.Params[:i], func(q *Param) bool { return q.Name == p.Name }) {
			return fmt.Errorf("duplicate parameter name %%%s", p.Name)
		}
	}
	preds := newPredTable(f)
	k := 0 // instructions checked so far
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("block %%%s lacks a terminator", b.Name)
		}
		for i, in := range b.Instrs {
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("block %%%s has a terminator mid-block", b.Name)
			}
			if in.HasResult() {
				if in.Name == "" {
					return fmt.Errorf("unnamed result in block %%%s (op %s)", b.Name, in.Op)
				}
				if names.add(in.Name) && f.namedBefore(in.Name, k) {
					return fmt.Errorf("duplicate SSA name %%%s", in.Name)
				}
			}
			if err := verifyInstr(in, &preds); err != nil {
				return fmt.Errorf("block %%%s: %s: %w", b.Name, in.Op, err)
			}
			k++
		}
	}
	return nil
}

// predTable lists the predecessors of a function's blocks by block number:
// block i's are preds[off[i]:off[i+1]], in block order. A number is
// trusted only when the function's block list holds that block under it.
type predTable struct {
	blocks []*Block
	off    []int32
	preds  []*Block
}

// newPredTable builds f's predecessor lists; f must be numbered. An edge
// to a block outside f is left out: verifyInstr rejects its branch.
func newPredTable(f *Function) predTable {
	t := predTable{blocks: f.Blocks, off: make([]int32, len(f.Blocks)+1)}
	// Count each list's length at its index, sum the counts into list ends,
	// then fill every list backwards from its end, so it starts in block
	// order.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if i := t.num(s); i >= 0 {
				t.off[i]++
			}
		}
	}
	for i := 1; i < len(t.off); i++ {
		t.off[i] += t.off[i-1]
	}
	t.preds = make([]*Block, t.off[len(t.off)-1])
	for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
		b := f.Blocks[bi]
		succs := b.Succs()
		for si := len(succs) - 1; si >= 0; si-- {
			if i := t.num(succs[si]); i >= 0 {
				t.off[i]--
				t.preds[t.off[i]] = b
			}
		}
	}
	return t
}

// num returns b's number, or -1 when the function does not hold b.
func (t *predTable) num(b *Block) int {
	if b != nil {
		if i := int(b.ID); i >= 0 && i < len(t.blocks) && t.blocks[i] == b {
			return i
		}
	}
	return -1
}

// of returns b's predecessors; none when the function does not hold b.
func (t *predTable) of(b *Block) []*Block {
	i := t.num(b)
	if i < 0 {
		return nil
	}
	return t.preds[t.off[i]:t.off[i+1]]
}

// inside checks that every target of branch in is a block of the function.
func (t *predTable) inside(in *Instr) error {
	for _, s := range in.Blocks {
		if s == nil {
			return fmt.Errorf("nil branch target")
		}
		if t.num(s) < 0 {
			return fmt.Errorf("branch to %%%s outside the function", s.Name)
		}
	}
	return nil
}

func verifyInstr(in *Instr, preds *predTable) error {
	want := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	nonNil := func() error {
		for i, a := range in.Args {
			if a == nil {
				return fmt.Errorf("nil operand %d", i)
			}
		}
		return nil
	}
	if err := nonNil(); err != nil {
		return err
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() {
			return fmt.Errorf("integer op on %s", in.Args[0].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("operand type mismatch")
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("float op on %s", in.Args[0].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("operand type mismatch")
		}
	case OpFNeg:
		if err := want(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("fneg on %s", in.Args[0].Type())
		}
	case OpICmp:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() && !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("icmp on %s", in.Args[0].Type())
		}
	case OpFCmp:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFP() {
			return fmt.Errorf("fcmp on %s", in.Args[0].Type())
		}
	case OpSelect:
		if err := want(3); err != nil {
			return err
		}
		if !in.Args[0].Type().Equal(I1()) {
			return fmt.Errorf("select condition must be i1")
		}
	case OpLoad:
		if err := want(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("load from non-pointer")
		}
		if in.SrcElem == nil {
			return fmt.Errorf("load without element type")
		}
	case OpStore:
		if err := want(2); err != nil {
			return err
		}
		if !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("store to non-pointer")
		}
	case OpGEP:
		if len(in.Args) < 2 {
			return fmt.Errorf("gep needs pointer and at least one index")
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("gep base must be a pointer")
		}
		if in.SrcElem == nil {
			return fmt.Errorf("gep without source element type")
		}
		for _, a := range in.Args[1:] {
			if !a.Type().IsInt() {
				return fmt.Errorf("gep index must be integer")
			}
		}
	case OpAlloca:
		if in.SrcElem == nil {
			return fmt.Errorf("alloca without allocated type")
		}
	case OpPhi:
		if len(in.Args) != len(in.Blocks) {
			return fmt.Errorf("phi args/blocks length mismatch")
		}
		if in.Parent != nil {
			ps := preds.of(in.Parent)
			if len(ps) != len(in.Blocks) {
				return fmt.Errorf("phi has %d incoming, block has %d predecessors",
					len(in.Blocks), len(ps))
			}
			for _, p := range ps {
				found := false
				for _, ib := range in.Blocks {
					if ib == p {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("phi missing incoming for predecessor %%%s", p.Name)
				}
			}
		}
		for _, a := range in.Args {
			if !a.Type().Equal(in.Ty) {
				return fmt.Errorf("phi incoming type mismatch")
			}
		}
	case OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs one target")
		}
		return preds.inside(in)
	case OpCondBr:
		if err := want(1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("conditional br needs two targets")
		}
		if !in.Args[0].Type().Equal(I1()) {
			return fmt.Errorf("branch condition must be i1")
		}
		return preds.inside(in)
	case OpCall:
		if in.Callee == "" {
			return fmt.Errorf("call without callee")
		}
	}
	return nil
}
