package passes

import (
	"slices"
	"sync"

	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// DCE removes side-effect-free instructions without uses, and then the
// instructions only they used, until none is left. Uses are counted once
// and a worklist follows the removals.
func DCE(f *llvm.Function) {
	// uses counts the operand uses of each pure instruction, by number;
	// removed marks one removed and impure one that is not pure.
	const removed, impure = -1, -2
	snap := numberInstrs(f)
	defer snap.release()
	instrs := snap.instrs
	uses := make([]int32, len(instrs))
	for _, in := range instrs {
		if !isPure(in) {
			uses[in.ID] = impure
		}
	}
	for _, in := range instrs {
		for _, a := range in.Args {
			if ai, ok := a.(*llvm.Instr); ok {
				if j := instrNum(instrs, ai); j >= 0 && uses[j] != impure {
					uses[j]++
				}
			}
		}
	}
	var work []*llvm.Instr
	for _, in := range instrs {
		if uses[in.ID] == 0 {
			work = append(work, in)
		}
	}
	if len(work) == 0 {
		return
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		uses[in.ID] = removed
		for _, a := range in.Args {
			if ai, ok := a.(*llvm.Instr); ok {
				if j := instrNum(instrs, ai); j >= 0 && uses[j] > 0 {
					uses[j]--
					if uses[j] == 0 {
						work = append(work, ai)
					}
				}
			}
		}
	}
	for _, b := range f.Blocks {
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			if uses[in.ID] == removed {
				in.Parent = nil
				continue
			}
			keep = append(keep, in)
		}
		clear(b.Instrs[len(keep):])
		b.Instrs = keep
	}
}

// instrSnapshot is f's instructions indexed by number: the snapshot a
// table over instruction numbers checks identity against.
type instrSnapshot struct {
	instrs []*llvm.Instr
}

// instrSnapshots holds the snapshots of finished passes.
var instrSnapshots sync.Pool

// numberInstrs renumbers f and returns its snapshot, which the pass hands
// back with release when it is done.
func numberInstrs(f *llvm.Function) *instrSnapshot {
	s, _ := instrSnapshots.Get().(*instrSnapshot)
	if s == nil {
		s = &instrSnapshot{}
	}
	s.instrs = slices.Grow(s.instrs[:0], f.Renumber())
	for _, b := range f.Blocks {
		s.instrs = append(s.instrs, b.Instrs...)
	}
	return s
}

// release empties the snapshot, so the pool pins no module, and pools it.
func (s *instrSnapshot) release() {
	clear(s.instrs)
	s.instrs = s.instrs[:0]
	instrSnapshots.Put(s)
}

// instrNum returns in's number in the snapshot instrs, or -1 when instrs
// does not hold it (a detached, foreign or newly created instruction).
func instrNum(instrs []*llvm.Instr, in *llvm.Instr) int {
	if i := int(in.ID); i >= 0 && i < len(instrs) && instrs[i] == in {
		return i
	}
	return -1
}

func isPure(in *llvm.Instr) bool {
	switch in.Op {
	case llvm.OpStore, llvm.OpBr, llvm.OpCondBr, llvm.OpRet, llvm.OpCall,
		llvm.OpUnreachable:
		return false
	}
	return true
}

// SimplifyCFG folds branches on constant conditions, removes unreachable
// blocks, and merges each block into its predecessor when that is the
// block's only predecessor and the block its only successor. One sweep
// computes one CFG and merges whole straight-line chains in place: a merge
// leaves every other block's predecessor count unchanged. Only inlining a
// phi of an absorbed block, which can make a branch condition constant,
// starts another sweep.
func SimplifyCFG(f *llvm.Function) {
	for {
		foldConstantBranches(f)
		cfg := analysis.NewCFG(f)
		live := f.Blocks[:0]
		for _, b := range f.Blocks {
			if cfg.Reachable(b) {
				live = append(live, b)
				continue
			}
			for _, s := range b.Succs() {
				removePhiIncoming(s, b)
			}
		}
		clear(f.Blocks[len(live):])
		f.Blocks = live
		if !mergeChains(f, cfg) {
			return
		}
	}
}

// foldConstantBranches rewrites each conditional branch on a constant into
// an unconditional one.
func foldConstantBranches(f *llvm.Function) {
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != llvm.OpCondBr {
			continue
		}
		c, ok := t.Args[0].(*llvm.ConstInt)
		if !ok {
			continue
		}
		dest := t.Blocks[0]
		dead := t.Blocks[1]
		if c.Val == 0 {
			dest, dead = dead, dest
		}
		removePhiIncoming(dead, b)
		t.Parent = nil
		b.Instrs[len(b.Instrs)-1] = &llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{dest},
			Loop: t.Loop, Parent: b}
	}
}

// mergeChains merges, in block order, every block with the chain of
// single-predecessor blocks its unconditional branches lead to. cfg is the
// CFG from before the unreachable blocks were dropped, so predecessor
// counts skip their edges. It stops after the first merge that inlines a
// phi and reports whether it did.
func mergeChains(f *llvm.Function, cfg *analysis.CFG) (inlinedPhi bool) {
	entry := f.Entry()
	merged := false
	for _, b := range f.Blocks {
		for !inlinedPhi {
			t := b.Terminator()
			if t == nil || t.Op != llvm.OpBr {
				break
			}
			s := t.Blocks[0]
			if s == b || s == entry || livePreds(cfg, s) != 1 {
				break
			}
			inlinedPhi = absorb(f, b, s, t)
			merged = true
		}
		if inlinedPhi {
			break
		}
	}
	if merged {
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if b.Parent == f {
				kept = append(kept, b)
			}
		}
		clear(f.Blocks[len(kept):])
		f.Blocks = kept
	}
	return inlinedPhi
}

// livePreds counts the edges into s from reachable blocks.
func livePreds(cfg *analysis.CFG, s *llvm.Block) int {
	n := 0
	for _, p := range cfg.Preds(s) {
		if cfg.Reachable(p) {
			n++
		}
	}
	return n
}

// absorb appends s to b, whose terminator t branches to s alone, and
// detaches s. It reports whether s opened with phis, which it inlines.
func absorb(f *llvm.Function, b, s *llvm.Block, t *llvm.Instr) bool {
	// Phis in s have one predecessor and so one incoming.
	k := 0
	for k < len(s.Instrs) && s.Instrs[k].Op == llvm.OpPhi {
		phi := s.Instrs[k]
		f.ReplaceAllUses(phi, phi.Args[0])
		phi.Parent = nil
		k++
	}
	// Keep loop metadata on the merged terminator.
	loopMD := t.Loop
	t.Parent = nil
	b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs[k:]...)
	for _, in := range s.Instrs[k:] {
		in.Parent = b
	}
	if loopMD != nil {
		if nt := b.Terminator(); nt != nil && nt.Loop == nil {
			nt.Loop = loopMD
		}
	}
	s.Instrs = nil
	s.Parent = nil
	// Phis that named s as an incoming block now come from b; only s's
	// successors, now b's, can have such phis.
	for _, x := range b.Succs() {
		for _, in := range x.Instrs {
			if in.Op != llvm.OpPhi {
				continue
			}
			for i, blk := range in.Blocks {
				if blk == s {
					in.Blocks[i] = b
				}
			}
		}
	}
	return k > 0
}

func removePhiIncoming(b *llvm.Block, pred *llvm.Block) {
	for _, in := range b.Instrs {
		if in.Op != llvm.OpPhi {
			continue
		}
		for i := 0; i < len(in.Blocks); i++ {
			if in.Blocks[i] == pred {
				in.Blocks = append(in.Blocks[:i], in.Blocks[i+1:]...)
				in.Args = append(in.Args[:i], in.Args[i+1:]...)
				i--
			}
		}
	}
}

// ConstFold folds instructions with constant operands, then cleans up.
func ConstFold(f *llvm.Function) {
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if v, ok := foldInstr(in); ok {
					f.ReplaceAllUses(in, v)
					changed = true
				}
			}
		}
		if changed {
			DCE(f)
		}
	}
}

func foldInstr(in *llvm.Instr) (llvm.Value, bool) {
	ci := func(i int) (int64, bool) {
		c, ok := in.Args[i].(*llvm.ConstInt)
		if !ok {
			return 0, false
		}
		return c.Val, true
	}
	cf := func(i int) (float64, bool) {
		c, ok := in.Args[i].(*llvm.ConstFloat)
		if !ok {
			return 0, false
		}
		return c.Val, true
	}
	switch in.Op {
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul:
		l, ok1 := ci(0)
		r, ok2 := ci(1)
		if ok1 && ok2 {
			var v int64
			switch in.Op {
			case llvm.OpAdd:
				v = l + r
			case llvm.OpSub:
				v = l - r
			case llvm.OpMul:
				v = l * r
			}
			return llvm.CI(in.Ty, v), true
		}
		// Identities.
		if in.Op == llvm.OpAdd {
			if ok2 && r == 0 {
				return in.Args[0], true
			}
			if ok1 && l == 0 {
				return in.Args[1], true
			}
		}
		if in.Op == llvm.OpMul {
			if ok2 && r == 1 {
				return in.Args[0], true
			}
			if ok1 && l == 1 {
				return in.Args[1], true
			}
		}
	case llvm.OpFAdd, llvm.OpFSub, llvm.OpFMul:
		l, ok1 := cf(0)
		r, ok2 := cf(1)
		if ok1 && ok2 {
			var v float64
			switch in.Op {
			case llvm.OpFAdd:
				v = l + r
			case llvm.OpFSub:
				v = l - r
			case llvm.OpFMul:
				v = l * r
			}
			return llvm.CF(in.Ty, v), true
		}
	case llvm.OpSExt, llvm.OpZExt, llvm.OpTrunc:
		if v, ok := ci(0); ok {
			return llvm.CI(in.Ty, v), true
		}
	case llvm.OpSIToFP:
		if v, ok := ci(0); ok {
			return llvm.CF(in.Ty, float64(v)), true
		}
	case llvm.OpICmp:
		l, ok1 := ci(0)
		r, ok2 := ci(1)
		if ok1 && ok2 {
			res := int64(0)
			ok := false
			switch in.Pred {
			case "eq":
				res, ok = b2i(l == r), true
			case "ne":
				res, ok = b2i(l != r), true
			case "slt":
				res, ok = b2i(l < r), true
			case "sle":
				res, ok = b2i(l <= r), true
			case "sgt":
				res, ok = b2i(l > r), true
			case "sge":
				res, ok = b2i(l >= r), true
			}
			if ok {
				return llvm.CI(llvm.I1(), res), true
			}
		}
	}
	return nil, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CSE deduplicates pure instructions with identical opcode/operands within
// dominating scopes (a GVN-lite). An eliminated instruction goes into a
// substitution table that later keys read their operands through; each
// block is compacted once, and one final pass over every block rewrites the
// operands that name an eliminated instruction, phis in earlier blocks
// included.
func CSE(f *llvm.Function) {
	cfg := analysis.NewCFG(f)
	dt := analysis.NewDomTree(cfg)
	snap := numberInstrs(f)
	defer snap.release()
	instrs := snap.instrs
	t := takeCSETables(len(instrs))
	defer t.release()
	kept, avail, subst, canonConsts := t.kept, t.avail, t.subst, t.consts
	eliminated := false
	// canon gives an operand its key form: an eliminated instruction its
	// replacement, and a constant the first equal literal seen, since
	// constants are not interned in the IR.
	typeKey := func(ty *llvm.Type) constKey {
		switch {
		case ty == nil:
			return constKey{kind: llvm.KindVoid}
		case ty.Kind == llvm.KindInt:
			return constKey{kind: ty.Kind, bits: ty.Bits}
		case ty.Kind == llvm.KindArray || ty.Kind == llvm.KindStruct:
			return constKey{kind: ty.Kind, ty: ty.String()}
		}
		return constKey{kind: ty.Kind}
	}
	canon := func(v llvm.Value) llvm.Value {
		var k constKey
		switch c := v.(type) {
		case *llvm.Instr:
			if j := instrNum(instrs, c); j >= 0 && subst[j] != nil {
				return subst[j]
			}
			return v
		case *llvm.ConstInt:
			k = typeKey(c.Ty)
			k.i = c.Val
		case *llvm.ConstFloat:
			k = typeKey(c.Ty)
			k.f = c.Val
		default:
			return v
		}
		if prev, ok := canonConsts[k]; ok {
			return prev
		}
		canonConsts[k] = v
		return v
	}
	mk := func(in *llvm.Instr) cseKey {
		k := cseKey{op: in.Op, pred: in.Pred}
		if len(in.Args) > 0 {
			k.a0 = canon(in.Args[0])
		}
		if len(in.Args) > 1 {
			k.a1 = canon(in.Args[1])
		}
		if len(in.Args) > 2 {
			k.a2 = canon(in.Args[2])
		}
		return k
	}
	for _, b := range cfg.Order {
		keep := b.Instrs[:0]
	next:
		for _, in := range b.Instrs {
			// An instruction outside the table sits in a block outside f
			// that a branch reaches (IR the verifier rejects): leave it.
			if cseKeyable(in) && instrNum(instrs, in) >= 0 {
				k := mk(in)
				c, seen := avail[k]
				if seen {
					for j := c.first; j >= 0; j = kept[j].next {
						prev := kept[j].in
						if prev.Parent != nil && dt.Dominates(prev.Parent, b) &&
							prev.SrcElem.Equal(in.SrcElem) && typesEqual(prev.Ty, in.Ty) {
							subst[in.ID] = prev
							eliminated = true
							in.Parent = nil
							continue next
						}
					}
					kept[c.last].next = int32(len(kept))
					c.last = int32(len(kept))
				} else {
					c = cseChain{int32(len(kept)), int32(len(kept))}
				}
				avail[k] = c
				kept = append(kept, cseLink{in, -1})
			}
			keep = append(keep, in)
		}
		clear(b.Instrs[len(keep):])
		b.Instrs = keep
	}
	t.kept = kept
	if !eliminated {
		return
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if ai, ok := a.(*llvm.Instr); ok {
					if j := instrNum(instrs, ai); j >= 0 && subst[j] != nil {
						in.Args[i] = subst[j]
					}
				}
			}
		}
	}
}

// constKey tells literals apart by value and by the type their printed
// form names.
type constKey struct {
	kind llvm.TypeKind
	bits int
	ty   string // printed type, for aggregates only
	i    int64
	f    float64
}

// cseKey identifies the instructions CSE merges: opcode, predicate and up
// to three operands in key form.
type cseKey struct {
	op   llvm.Opcode
	pred string
	a0   llvm.Value
	a1   llvm.Value
	a2   llvm.Value
}

// cseLink is a kept instruction and the number of the next one kept under
// its key, or -1.
type cseLink struct {
	in   *llvm.Instr
	next int32
}

// cseChain holds the numbers of the first and last instructions kept under
// a key.
type cseChain struct{ first, last int32 }

// cseTables is CSE's scratch. kept lists the instructions kept under some
// key; avail maps a key to the first and last of its instructions, chained
// through next in the order they were kept. subst maps each eliminated
// instruction, by number, to the dominating equivalent that replaces it,
// which is never eliminated itself. consts maps a literal's key to the
// first equal literal seen.
type cseTables struct {
	kept   []cseLink
	avail  map[cseKey]cseChain
	subst  []*llvm.Instr
	consts map[constKey]llvm.Value
}

// cseScratch holds the tables of finished CSE runs.
var cseScratch sync.Pool

// takeCSETables returns empty tables for a function of n instructions.
func takeCSETables(n int) *cseTables {
	t, _ := cseScratch.Get().(*cseTables)
	if t == nil {
		t = &cseTables{avail: map[cseKey]cseChain{}, consts: map[constKey]llvm.Value{}}
	}
	// A run that panicked may have pooled filled tables.
	clear(t.avail)
	clear(t.consts)
	t.kept = t.kept[:0]
	t.subst = slices.Grow(t.subst[:0], n)[:n]
	clear(t.subst)
	return t
}

// release empties the tables of everything that references the function
// and pools them.
func (t *cseTables) release() {
	clear(t.avail)
	clear(t.consts)
	clear(t.kept)
	clear(t.subst)
	t.kept, t.subst = t.kept[:0], t.subst[:0]
	cseScratch.Put(t)
}

// cseKeyable reports whether CSE may merge in with an equal instruction:
// pure, not a phi, alloca or load, and with at most three operands.
func cseKeyable(in *llvm.Instr) bool {
	return isPure(in) && in.Op != llvm.OpPhi && in.Op != llvm.OpAlloca &&
		in.Op != llvm.OpLoad && len(in.Args) <= 3
}

func typesEqual(a, b *llvm.Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(b)
}

// StrengthReduce rewrites integer multiplies by power-of-two constants into
// shifts — address arithmetic over power-of-two array extents then costs a
// wire instead of a multiplier.
func StrengthReduce(f *llvm.Function) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpMul || !in.Ty.IsInt() {
				continue
			}
			for i := 0; i < 2; i++ {
				c, ok := in.Args[i].(*llvm.ConstInt)
				if !ok || c.Val <= 0 || c.Val&(c.Val-1) != 0 {
					continue
				}
				shift := int64(0)
				for v := c.Val; v > 1; v >>= 1 {
					shift++
				}
				other := in.Args[1-i]
				in.Op = llvm.OpShl
				in.Args = []llvm.Value{other, llvm.CI(in.Ty, shift)}
				break
			}
		}
	}
}

// Cleanup runs the standard post-frontend pipeline.
func Cleanup(f *llvm.Function) {
	Mem2Reg(f)
	SimplifyCFG(f)
	ConstFold(f)
	StrengthReduce(f)
	CSE(f)
	DCE(f)
	SimplifyCFG(f)
}
