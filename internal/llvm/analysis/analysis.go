// Package analysis provides CFG utilities over the llvm package: predecessor
// maps, reverse postorder, dominator trees, natural-loop detection, and a
// minimal induction-variable scalar evolution, as required by mem2reg, the
// adaptor, and the HLS scheduler.
package analysis

import (
	"repro/internal/llvm"
)

// CFG caches predecessor/successor relations of a function. Its tables are
// indexed by block number: f's blocks carry the layout numbers NewCFG has
// f.Renumber write, and any block outside f that the CFG meets (a branch
// target that f does not hold, or a block reached through one) is numbered
// after them in the order it is met. A lookup trusts a block's ID only when
// the CFG's snapshot holds that block under it, and otherwise scans the
// snapshot, so every block gets the answer it had when the CFG was built:
// a detached or foreign block, and one f dropped or renumbered since.
//
// NewCFG renumbers f, so building a CFG needs the same exclusive access to
// the module as a pass.
type CFG struct {
	F     *llvm.Function
	Order []*llvm.Block // reverse postorder from entry

	// blocks[i] is the block numbered i: f.Blocks as of NewCFG, then the
	// blocks outside f.
	blocks []*llvm.Block
	// Block i's predecessors are preds[predOff[i]:predOff[i+1]]; blocks
	// numbered at or past len(predOff)-1 have none.
	predOff []int32
	preds   []*llvm.Block
	// rpo holds each block's position in Order, or -1 when it is
	// unreachable.
	rpo []int32
}

// NewCFG computes the CFG for f.
func NewCFG(f *llvm.Function) *CFG {
	f.Renumber()
	n := len(f.Blocks)
	c := &CFG{F: f, blocks: make([]*llvm.Block, n)}
	copy(c.blocks, f.Blocks)
	// Number the branch targets outside f, then lay the predecessor lists
	// out in one array.
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if c.num(s) < 0 {
				c.blocks = append(c.blocks, s)
			}
			edges++
		}
	}
	nb := len(c.blocks)
	slab := make([]int32, 2*nb+1)
	c.predOff, c.rpo = slab[:nb+1], slab[nb+1:]
	// Count each list's length at its index, sum the counts into list ends,
	// then fill every list backwards from its end, so it starts in block
	// order.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			c.predOff[c.num(s)]++
		}
	}
	for i := 1; i <= nb; i++ {
		c.predOff[i] += c.predOff[i-1]
	}
	// The predecessor lists and the postorder share one allocation: the
	// postorder, later Order, takes the nb slots after the edges, and
	// appending past them (blocks reached through a block outside f)
	// moves it out.
	buf := make([]*llvm.Block, edges+nb)
	c.preds = buf[:edges:edges]
	for bi := n - 1; bi >= 0; bi-- {
		b := f.Blocks[bi]
		succs := b.Succs()
		for si := len(succs) - 1; si >= 0; si-- {
			i := c.num(succs[si])
			c.predOff[i]--
			c.preds[c.predOff[i]] = b
		}
	}
	for i := range c.rpo {
		c.rpo[i] = -1
	}
	// Reverse postorder via iterative DFS; rpo marks the blocks seen with
	// -2 until the numbering below overwrites it.
	const seen = -2
	post := buf[edges:edges]
	type frame struct{ b, i int32 }
	if entry := f.Entry(); entry != nil {
		stack := make([]frame, 1, nb)
		stack[0] = frame{int32(c.num(entry)), 0}
		c.rpo[stack[0].b] = seen
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			b := c.blocks[top.b]
			succs := b.Succs()
			if int(top.i) < len(succs) {
				s := succs[top.i]
				top.i++
				i := c.num(s)
				if i < 0 {
					// A block reached only through a block outside f.
					i = len(c.blocks)
					c.blocks = append(c.blocks, s)
					c.rpo = append(c.rpo, -1)
				}
				if c.rpo[i] != seen {
					c.rpo[i] = seen
					stack = append(stack, frame{int32(i), 0})
				}
				continue
			}
			post = append(post, b)
			stack = stack[:len(stack)-1]
		}
	}
	c.Order = post
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	for j, b := range c.Order {
		c.rpo[c.num(b)] = int32(j)
	}
	return c
}

// num returns b's number in c, or -1 when c does not know b. The scan runs
// backwards because a block f lists twice keeps its later number.
func (c *CFG) num(b *llvm.Block) int {
	if b != nil {
		if i := int(b.ID); i >= 0 && i < len(c.blocks) && c.blocks[i] == b {
			return i
		}
	}
	for i := len(c.blocks) - 1; i >= 0; i-- {
		if c.blocks[i] == b {
			return i
		}
	}
	return -1
}

// Preds returns b's predecessors among f's blocks, in block order, with
// one entry per edge; nil when there are none.
func (c *CFG) Preds(b *llvm.Block) []*llvm.Block {
	i := c.num(b)
	if i < 0 || i >= len(c.predOff)-1 || c.predOff[i] == c.predOff[i+1] {
		return nil
	}
	return c.preds[c.predOff[i]:c.predOff[i+1]:c.predOff[i+1]]
}

// Reachable reports whether b is reachable from entry.
func (c *CFG) Reachable(b *llvm.Block) bool { return c.Index(b) >= 0 }

// Index returns b's position in Order, or -1 when b is unreachable.
func (c *CFG) Index(b *llvm.Block) int {
	if i := c.num(b); i >= 0 {
		return int(c.rpo[i])
	}
	return -1
}

// DomTree is a dominator tree (Cooper-Harvey-Kennedy).
type DomTree struct {
	cfg *CFG
	// idom holds each reachable block's immediate dominator, both as
	// positions in cfg.Order.
	idom []int
}

// NewDomTree computes the dominator tree for f's CFG.
func NewDomTree(c *CFG) *DomTree {
	d := &DomTree{cfg: c, idom: make([]int, len(c.Order))}
	if len(c.Order) == 0 {
		return d
	}
	for i := range d.idom {
		d.idom[i] = -1
	}
	d.idom[0] = 0
	changed := true
	for changed {
		changed = false
		for i, b := range c.Order[1:] {
			newIdom := -1
			for _, p := range c.Preds(b) {
				pi := c.Index(p)
				if pi < 0 || d.idom[pi] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = pi
					continue
				}
				newIdom = d.intersect(pi, newIdom)
			}
			if newIdom >= 0 && d.idom[i+1] != newIdom {
				d.idom[i+1] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b int) int {
	for a != b {
		for a > b {
			a = d.idom[a]
		}
		for b > a {
			b = d.idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator (entry's idom is itself).
func (d *DomTree) IDom(b *llvm.Block) *llvm.Block {
	i := d.cfg.Index(b)
	if i < 0 || d.idom[i] < 0 {
		return nil
	}
	return d.cfg.Order[d.idom[i]]
}

// Dominates reports whether a dominates b (reflexive).
func (d *DomTree) Dominates(a, b *llvm.Block) bool {
	if a == b {
		return true
	}
	ia := d.cfg.Index(a)
	if ia < 0 {
		return false
	}
	ib := d.cfg.Index(b)
	if ib < 0 {
		return false
	}
	for ib > ia {
		ib = d.idom[ib]
	}
	return ib == ia
}

// Loop is a natural loop.
type Loop struct {
	Header *llvm.Block
	// Latch is the unique back-edge source, or nil when the header has
	// several back edges (consult Latches in that case).
	Latch *llvm.Block
	// Latches lists every back-edge source, in reverse postorder.
	Latches []*llvm.Block
	Parent  *Loop
	// Children are loops nested directly inside this one.
	Children []*Loop
	// MD is the loop metadata found on the latch terminators. When several
	// latches carry distinct metadata the loop's intent is ambiguous and MD
	// is nil (the hls-directives lint diagnoses this).
	MD *llvm.LoopMD

	// body holds one bit per block number of cfg; size counts the bits set.
	cfg  *CFG
	body []uint64
	size int
}

// Depth returns the nesting depth (outermost = 1).
func (l *Loop) Depth() int {
	d := 1
	for p := l.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *llvm.Block) bool {
	i := l.cfg.num(b)
	return i >= 0 && l.has(i)
}

func (l *Loop) has(i int) bool { return l.body[i>>6]&(1<<(i&63)) != 0 }

// add puts block number i in the loop and reports whether it was new.
func (l *Loop) add(i int) bool {
	if l.has(i) {
		return false
	}
	l.body[i>>6] |= 1 << (i & 63)
	l.size++
	return true
}

// Blocks returns the loop's blocks in layout order: in the order of
// f.Blocks when the CFG was built, then any blocks outside f in the order
// the CFG met them.
func (l *Loop) Blocks() []*llvm.Block {
	bs := make([]*llvm.Block, 0, l.size)
	for i, b := range l.cfg.blocks {
		if l.has(i) {
			bs = append(bs, b)
		}
	}
	return bs
}

// IsInnermost reports whether the loop has no children.
func (l *Loop) IsInnermost() bool { return len(l.Children) == 0 }

// LoopInfo is the set of natural loops of a function, with the CFG they
// were found in.
type LoopInfo struct {
	CFG   *CFG
	Loops []*Loop // all loops, outer before inner
}

// ByHeader returns the loop headed by h, or nil.
func (li *LoopInfo) ByHeader(h *llvm.Block) *Loop {
	for _, l := range li.Loops {
		if l.Header == h {
			return l
		}
	}
	return nil
}

// FindLoops detects natural loops via back edges (latch -> header where
// header dominates latch) and nests them by block containment.
func FindLoops(c *CFG, d *DomTree) *LoopInfo {
	li := &LoopInfo{CFG: c}
	words := (len(c.blocks) + 63) / 64
	var stack []int
	for _, b := range c.Order {
		for _, s := range b.Succs() {
			if d.Dominates(s, b) {
				// back edge b -> s
				l := li.ByHeader(s)
				if l == nil {
					l = &Loop{Header: s, cfg: c, body: make([]uint64, words)}
					l.add(c.num(s))
					li.Loops = append(li.Loops, l)
				}
				l.Latches = append(l.Latches, b)
				// Collect body: reverse reachability from latch to header.
				if i := c.num(b); l.add(i) {
					stack = append(stack, i)
				}
				for len(stack) > 0 {
					x := c.blocks[stack[len(stack)-1]]
					stack = stack[:len(stack)-1]
					for _, p := range c.Preds(x) {
						if i := c.num(p); l.add(i) {
							stack = append(stack, i)
						}
					}
				}
			}
		}
	}
	// Finalize latch/metadata views. A unique latch is exposed as Latch; a
	// multi-latch loop keeps Latch nil so callers cannot silently act on an
	// arbitrary back edge. Metadata survives only when exactly one latch
	// terminator carries it (several identical-intent latches would need a
	// merge policy; the lint layer flags them instead).
	for _, l := range li.Loops {
		if len(l.Latches) == 1 {
			l.Latch = l.Latches[0]
		}
		var md *llvm.LoopMD
		ambiguous := false
		for _, latch := range l.Latches {
			if t := latch.Terminator(); t != nil && t.Loop != nil {
				if md != nil && md != t.Loop {
					ambiguous = true
				}
				md = t.Loop
			}
		}
		if !ambiguous {
			l.MD = md
		}
	}
	// Establish nesting: loop A is a child of the smallest loop strictly
	// containing its header.
	for _, l := range li.Loops {
		var best *Loop
		for _, o := range li.Loops {
			if o == l || !o.Contains(l.Header) {
				continue
			}
			if best == nil || o.size < best.size {
				best = o
			}
		}
		if best != nil {
			l.Parent = best
			best.Children = append(best.Children, l)
		}
	}
	// Order outer loops before inner (stable by depth).
	ordered := make([]*Loop, 0, len(li.Loops))
	var emit func(ls []*Loop)
	emit = func(ls []*Loop) {
		for _, l := range ls {
			ordered = append(ordered, l)
			emit(l.Children)
		}
	}
	var tops []*Loop
	for _, l := range li.Loops {
		if l.Parent == nil {
			tops = append(tops, l)
		}
	}
	emit(tops)
	li.Loops = ordered
	return li
}

// NestOf returns the loops enclosing b, outermost first (empty when b is not
// inside any loop).
func (li *LoopInfo) NestOf(b *llvm.Block) []*Loop {
	var innermost *Loop
	for _, l := range li.Loops {
		if !l.Contains(b) {
			continue
		}
		if innermost == nil || l.size < innermost.size {
			innermost = l
		}
	}
	if innermost == nil {
		return nil
	}
	var nest []*Loop
	for l := innermost; l != nil; l = l.Parent {
		nest = append(nest, l)
	}
	for i, j := 0, len(nest)-1; i < j; i, j = i+1, j-1 {
		nest[i], nest[j] = nest[j], nest[i]
	}
	return nest
}

// IndVar describes a loop's canonical induction variable: an integer phi in
// the header starting at Start, stepping by Step each iteration, and guarded
// by `icmp Pred iv, Bound` on the header's conditional branch.
type IndVar struct {
	Phi   *llvm.Instr
	Start int64
	Step  int64 // nonzero; negative for down-counting loops
	Bound int64
	Pred  string // slt, sle, ult, ule (Step > 0) or sgt, sge (Step < 0)
}

// Trip returns the number of iterations the guard admits (0 when the bound
// excludes even the start value).
func (iv IndVar) Trip() int64 {
	switch iv.Pred {
	case "slt", "ult":
		if iv.Bound <= iv.Start {
			return 0
		}
		return (iv.Bound - iv.Start + iv.Step - 1) / iv.Step
	case "sle", "ule":
		if iv.Bound < iv.Start {
			return 0
		}
		return (iv.Bound-iv.Start)/iv.Step + 1
	case "sgt":
		if iv.Start <= iv.Bound {
			return 0
		}
		return (iv.Start - iv.Bound + (-iv.Step) - 1) / (-iv.Step)
	case "sge":
		if iv.Start < iv.Bound {
			return 0
		}
		return (iv.Start-iv.Bound)/(-iv.Step) + 1
	}
	return 0
}

// Last returns the final value the induction variable takes inside the loop
// body: the largest for positive steps, the smallest for negative ones. Only
// meaningful when Trip() >= 1.
func (iv IndVar) Last() int64 {
	return iv.Start + (iv.Trip()-1)*iv.Step
}

// InductionVar recognizes the canonical phi/icmp/add induction variable of
// a loop, with ok=false when the shape is not recognized.
//
// Recognized shape (as produced by both flows; instcombine-lite may rewrite
// the exit compare to sle, and unsigned forms appear after retyping):
//
//	header: %iv = phi [ C0, pre ], [ %next, latch ]
//	        %c = icmp {slt|sle|ult|ule|sgt|sge} %iv, C1
//	        br %c, body, exit
//	...     %next = add %iv, C2
//
// The signed greater-than forms are the down-counting loops (C2 < 0); the
// less-than forms require C2 > 0.
func InductionVar(l *Loop) (IndVar, bool) {
	var cmp *llvm.Instr
	for _, in := range l.Header.Instrs {
		if in.Op == llvm.OpICmp {
			cmp = in
		}
	}
	term := l.Header.Terminator()
	if cmp == nil || term == nil || term.Op != llvm.OpCondBr || term.Args[0] != cmp {
		return IndVar{}, false
	}
	// The induction phi is the compare's left operand.
	phi, ok := cmp.Args[0].(*llvm.Instr)
	if !ok || phi.Op != llvm.OpPhi || phi.Parent != l.Header || !phi.Ty.IsInt() {
		return IndVar{}, false
	}
	switch cmp.Pred {
	case "slt", "sle", "ult", "ule", "sgt", "sge":
	default:
		return IndVar{}, false
	}
	bound, ok := cmp.Args[1].(*llvm.ConstInt)
	if !ok {
		return IndVar{}, false
	}
	var start *llvm.ConstInt
	var step *llvm.ConstInt
	for i, inc := range phi.Args {
		if l.Contains(phi.Blocks[i]) && phi.Blocks[i] != l.Header {
			// Back-edge value: expect add(iv, step).
			add, ok := inc.(*llvm.Instr)
			if !ok || add.Op != llvm.OpAdd {
				return IndVar{}, false
			}
			if add.Args[0] == phi {
				step, _ = add.Args[1].(*llvm.ConstInt)
			} else if add.Args[1] == phi {
				step, _ = add.Args[0].(*llvm.ConstInt)
			}
		} else {
			start, _ = inc.(*llvm.ConstInt)
		}
	}
	if start == nil || step == nil || step.Val == 0 {
		return IndVar{}, false
	}
	down := cmp.Pred == "sgt" || cmp.Pred == "sge"
	if down != (step.Val < 0) {
		// An up-counting guard over a negative step (or vice versa) is not a
		// counted loop: it exits immediately or never via the guard.
		return IndVar{}, false
	}
	if (cmp.Pred == "ult" || cmp.Pred == "ule") && (start.Val < 0 || bound.Val < 0) {
		// Unsigned compares over negative constants would need modular
		// reasoning; bail out rather than report a wrong count.
		return IndVar{}, false
	}
	return IndVar{Phi: phi, Start: start.Val, Step: step.Val, Bound: bound.Val, Pred: cmp.Pred}, true
}

// TripCount returns the constant trip count of a loop in canonical
// phi/icmp/add form, with ok=false when the shape is not recognized.
func TripCount(l *Loop) (int64, bool) {
	iv, ok := InductionVar(l)
	if !ok {
		return 0, false
	}
	return iv.Trip(), true
}
