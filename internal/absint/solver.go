// Package absint is the abstract-interpretation layer of the static-analysis
// subsystem: a generic forward dataflow solver over the analysis.CFG plus
// three client domains over the LLVM-like IR — integer intervals (value
// ranges with widening/narrowing and branch refinement), a flow-insensitive
// Andersen-style points-to analysis (MayAlias), and sparse conditional
// constant propagation (unreachable-block detection). The lint checks, the
// scheduler's dependence test, and the DSE feasibility pre-check consume
// these results instead of hand-rolling per-check dataflow.
package absint

import (
	"slices"

	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Lattice is what one forward value analysis supplies to Solve: the facts
// it proves about a single integer SSA value and how they combine. Solve
// does everything else for every analysis alike — the environment, its
// join, widening and equality, the transfer loop, edge feasibility, phi
// binding and the queries on the solved facts — the shape of MLIR's sparse
// dataflow framework, where an analysis defines a lattice per value and its
// transfer functions only.
type Lattice[F any] interface {
	// Top is the fact of a value of type ty the environment holds no
	// fact for.
	Top(ty *llvm.Type) F
	// Const is the fact of the integer constant c.
	Const(c int64) F
	// Join is the least upper bound of two facts.
	Join(a, b F) F
	// Widen extrapolates next against prev so ascending chains terminate.
	// A lattice of finite height returns Join(prev, next).
	Widen(prev, next F) F
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal(a, b F) bool
	// Transfer is the fact of integer instruction in, never a phi, with
	// its operands read from env.
	Transfer(env *Env[F], in *llvm.Instr) F
	// Refine narrows env under "cmp evaluated to taken" along a branch
	// edge, and reports false when that is contradictory: the branch
	// never takes the edge.
	Refine(env *Env[F], cmp *llvm.Instr, taken bool) bool
	// Decides reports whether fact f pins a branch condition to one
	// value, and whether that value is nonzero.
	Decides(f F) (nonzero, ok bool)
}

// slot is one value's entry in an environment. A value whose slot is not
// set reads as the Top of its type.
type slot[F any] struct {
	fact F
	set  bool
}

// Env is the environment of one program point: one slot per parameter of
// the function, by position, then one per instruction, by the ID
// Function.Renumber gives it. Solve never changes an environment once
// stored; Set copies the slots on the first write to an environment it
// did not create.
type Env[F any] struct {
	sp    *space[F]
	slots []slot[F]
	own   bool
}

// Get returns v's fact: exact for an integer constant, the fact held for a
// parameter or instruction, and the Top of v's type otherwise.
func (e *Env[F]) Get(v llvm.Value) F {
	if c, ok := v.(*llvm.ConstInt); ok {
		return e.sp.lat.Const(c.Val)
	}
	if i := e.sp.slotOf(v); i >= 0 && e.slots[i].set {
		return e.slots[i].fact
	}
	return e.sp.lat.Top(v.Type())
}

// Set records f as v's fact. A value that is neither a parameter nor an
// instruction of the function (a constant, undef) has no slot, so a fact
// refined onto it is dropped.
func (e *Env[F]) Set(v llvm.Value, f F) {
	i := e.sp.slotOf(v)
	if i < 0 {
		return
	}
	if s := e.slots[i]; s.set && e.sp.lat.Equal(s.fact, f) {
		return
	}
	if !e.own {
		e.slots, e.own = slices.Clone(e.slots), true
	}
	e.slots[i] = slot[F]{f, true}
}

// space numbers one function's values for its environments.
type space[F any] struct {
	lat    Lattice[F]
	params []*llvm.Param
	instrs []*llvm.Instr // by ID
}

// slotOf returns v's slot, or -1 when v has none.
func (sp *space[F]) slotOf(v llvm.Value) int {
	switch v := v.(type) {
	case *llvm.Instr:
		if id := int(v.ID); id >= 0 && id < len(sp.instrs) && sp.instrs[id] == v {
			return len(sp.params) + id
		}
	case *llvm.Param:
		for i, p := range sp.params {
			if p == v {
				return i
			}
		}
	}
	return -1
}

// same reports whether two environments share their slots.
func same[F any](a, b []slot[F]) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// join returns the slot-wise join of a and b, a itself when b adds
// nothing. A fact set on one side only survives: any use it dominates sees
// exactly that path's value (SSA), so keeping it loses nothing.
func (sp *space[F]) join(a, b []slot[F]) []slot[F] {
	if same(a, b) {
		return a
	}
	var out []slot[F]
	for i, sb := range b {
		if !sb.set {
			continue
		}
		f := sb.fact
		if sa := a[i]; sa.set {
			if f = sp.lat.Join(sa.fact, sb.fact); sp.lat.Equal(f, sa.fact) {
				continue
			}
		}
		if out == nil {
			out = slices.Clone(a)
		}
		out[i] = slot[F]{f, true}
	}
	if out == nil {
		return a
	}
	return out
}

// widen extrapolates next against prev at loop header at, widening only
// the values that loop itself mutates: its phis. Everything else joins — a
// loop-invariant value (an outer induction variable, say) keeps its
// branch-refined range instead of being blown to infinity by a widening no
// condition inside this loop could undo, since narrowing cannot shrink a
// stale copy cycling the backedge. With at == nil every value widens (the
// irreducible-cycle fallback).
func (sp *space[F]) widen(at *llvm.Block, prev, next []slot[F]) []slot[F] {
	out := sp.join(next, prev)
	owned := !same(out, next) && !same(out, prev)
	widen := func(i int) {
		p, n := prev[i], next[i]
		if !p.set || !n.set {
			return
		}
		if f := sp.lat.Widen(p.fact, n.fact); !sp.lat.Equal(f, out[i].fact) {
			if !owned {
				out, owned = slices.Clone(out), true
			}
			out[i].fact = f
		}
	}
	if at == nil {
		for i := range out {
			widen(i)
		}
		return out
	}
	for _, ins := range at.Instrs {
		if i := sp.slotOf(ins); i >= 0 && ins.Op == llvm.OpPhi && ins.Parent == at {
			widen(i)
		}
	}
	return out
}

// equal reports whether two environments hold the same facts.
func (sp *space[F]) equal(a, b []slot[F]) bool {
	if same(a, b) {
		return true
	}
	for i := range a {
		if a[i].set != b[i].set || a[i].set && !sp.lat.Equal(a[i].fact, b[i].fact) {
			return false
		}
	}
	return true
}

// transfer applies block b's integer instructions to in. Phis are bound
// per edge, so the joined in-state already holds them.
func (sp *space[F]) transfer(b *llvm.Block, in []slot[F]) []slot[F] {
	env := Env[F]{sp: sp, slots: in}
	for _, ins := range b.Instrs {
		if ins.Op == llvm.OpPhi || ins.Ty == nil || !ins.Ty.IsInt() {
			continue
		}
		env.Set(ins, sp.lat.Transfer(&env, ins))
	}
	return env.slots
}

// edge specializes out for the from→to CFG edge: it refines the branch
// condition and then binds to's phis to this edge's operands, so a refined
// operand flows its narrowed fact into the phi. ok=false marks the edge
// infeasible (the branch provably never takes it), which is how sparse
// conditional behavior reaches every analysis.
func (sp *space[F]) edge(from, to *llvm.Block, out []slot[F]) ([]slot[F], bool) {
	env := Env[F]{sp: sp, slots: out}
	term := from.Terminator()
	if term != nil && term.Op == llvm.OpCondBr && len(term.Blocks) == 2 && term.Blocks[0] != term.Blocks[1] {
		taken := term.Blocks[0] == to
		if nonzero, ok := sp.lat.Decides(env.Get(term.Args[0])); ok && nonzero != taken {
			return nil, false
		}
		if cmp, ok := term.Args[0].(*llvm.Instr); ok && cmp.Op == llvm.OpICmp && !sp.lat.Refine(&env, cmp, taken) {
			return nil, false
		}
	}
	for _, ins := range to.Instrs {
		if ins.Op != llvm.OpPhi {
			break
		}
		if ins.Ty == nil || !ins.Ty.IsInt() {
			continue
		}
		for i, blk := range ins.Blocks {
			if blk == from && i < len(ins.Args) {
				env.Set(ins, env.Get(ins.Args[i]))
			}
		}
	}
	return env.slots, true
}

// Facts holds the solved environments of one function.
type Facts[F any] struct {
	cfg *analysis.CFG
	sp  *space[F]
	// in and out are the environments at entry to and exit from each
	// block, by its position in cfg.Order; only reached blocks have them.
	in, out [][]slot[F]
	reached []bool
}

// Reached reports whether the analysis found b reachable: CFG-reachable and
// with at least one feasible incoming path. CFG-reachable blocks with
// !Reached are the "unreachable code" sparse conditional analysis exposes.
func (r *Facts[F]) Reached(b *llvm.Block) bool {
	i := r.cfg.Index(b)
	return i >= 0 && r.reached[i]
}

// Unreachable reports whether b is CFG-reachable yet provably never
// executed (every incoming edge's branch condition excludes it).
func (r *Facts[F]) Unreachable(b *llvm.Block) bool {
	return r.cfg.Reachable(b) && !r.Reached(b)
}

// At returns v's fact at the program point of block b: b's out-environment
// for a value b defines, its (branch-refined) in-environment otherwise.
// ok=false when the analysis did not reach b.
func (r *Facts[F]) At(b *llvm.Block, v llvm.Value) (f F, ok bool) {
	i := r.cfg.Index(b)
	if i < 0 || !r.reached[i] {
		return f, false
	}
	env := Env[F]{sp: r.sp, slots: r.in[i]}
	if in, isInstr := v.(*llvm.Instr); isInstr && in.Parent == b {
		env.slots = r.out[i]
	}
	return env.Get(v), true
}

// narrowingRounds caps the descending iteration after the widened fixpoint:
// each pass recovers loop-exit bounds lost to widening one nesting level
// deeper, and the loop exits early once an entire pass changes nothing.
const narrowingRounds = 8

// Solve runs the analysis lat to fixpoint over f: an ascending worklist
// phase in reverse postorder with widening at natural-loop headers (and at
// any block revisited often enough that an irreducible cycle must be
// suspected), followed by a bounded narrowing phase. Edge infeasibility
// propagates: blocks whose every incoming edge is infeasible are never
// visited and stay !Reached. Block and edge state lives in slices indexed
// by a block's position in reverse postorder.
func Solve[F any](f *llvm.Function, lat Lattice[F]) *Facts[F] {
	cfg := analysis.NewCFG(f)
	loops := analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
	sp := &space[F]{lat: lat, params: f.Params}
	for _, b := range f.Blocks {
		sp.instrs = append(sp.instrs, b.Instrs...)
	}
	nb := len(cfg.Order)
	res := &Facts[F]{cfg: cfg, sp: sp,
		in: make([][]slot[F], nb), out: make([][]slot[F], nb), reached: make([]bool, nb)}
	if nb == 0 {
		return res
	}
	entry := make([]slot[F], len(f.Params)+len(sp.instrs))
	isHeader := make([]bool, nb)
	for _, l := range loops.Loops {
		if i := cfg.Index(l.Header); i >= 0 {
			isHeader[i] = true
		}
	}
	// Block i's out-edges are edges[edgeOff[i]:edgeOff[i+1]], one per
	// entry of dedupSuccs; hasEdge marks the feasible ones.
	edgeOff := make([]int, nb+1)
	for i, b := range cfg.Order {
		edgeOff[i+1] = edgeOff[i] + len(dedupSuccs(b))
	}
	edges := make([][]slot[F], edgeOff[nb])
	hasEdge := make([]bool, edgeOff[nb])
	edgeTo := func(from int, to *llvm.Block) int {
		for k, s := range dedupSuccs(cfg.Order[from]) {
			if s == to {
				return edgeOff[from] + k
			}
		}
		return -1
	}

	inState := func(bi int) ([]slot[F], bool) {
		if bi == 0 {
			return entry, true
		}
		var in []slot[F]
		first := true
		for _, p := range cfg.Preds(cfg.Order[bi]) {
			pi := cfg.Index(p)
			if pi < 0 {
				continue
			}
			if k := edgeTo(pi, cfg.Order[bi]); k >= 0 && hasEdge[k] {
				if first {
					in, first = edges[k], false
				} else {
					in = sp.join(in, edges[k])
				}
			}
		}
		return in, !first
	}
	flowOut := func(bi int, out []slot[F]) (changed bool) {
		b := cfg.Order[bi]
		for k, s := range dedupSuccs(b) {
			k += edgeOff[bi]
			es, feasible := sp.edge(b, s, out)
			if !feasible {
				if hasEdge[k] {
					// Ascending states only grow, so a feasible edge cannot
					// become infeasible mid-ascent; this fires only while
					// narrowing, where dropping the edge is the refinement.
					hasEdge[k] = false
					changed = true
				}
				continue
			}
			if hasEdge[k] && sp.equal(edges[k], es) {
				continue
			}
			hasEdge[k], edges[k] = true, es
			changed = true
		}
		return changed
	}

	// Ascending phase: worklist ordered by reverse postorder. forceWiden
	// guards against irreducible cycles (no natural-loop header to widen at):
	// any block revisited implausibly often starts widening regardless.
	inWork := make([]bool, nb)
	visits := make([]int, nb)
	forceWiden := 2*nb + 8
	inWork[0] = true
	for {
		bi := slices.Index(inWork, true)
		if bi < 0 {
			break
		}
		inWork[bi] = false
		in, ok := inState(bi)
		if !ok {
			continue // no feasible incoming edge yet
		}
		visits[bi]++
		if res.reached[bi] {
			old := res.in[bi]
			if visits[bi] > forceWiden {
				in = sp.widen(nil, old, in)
			} else if isHeader[bi] {
				in = sp.widen(cfg.Order[bi], old, in)
			}
			if sp.equal(old, in) {
				continue
			}
		}
		res.in[bi], res.reached[bi] = in, true
		out := sp.transfer(cfg.Order[bi], in)
		res.out[bi] = out
		if flowOut(bi, out) {
			for _, s := range dedupSuccs(cfg.Order[bi]) {
				if i := cfg.Index(s); i >= 0 {
					inWork[i] = true
				}
			}
		}
	}

	// Narrowing phase: recompute every state in RPO without widening,
	// letting refined branch conditions shrink intervals and kill edges.
	// Back-edge states come from the previous round — a sound
	// over-approximation — so each recomputed state stays sound.
	for round := 0; round < narrowingRounds; round++ {
		clear(res.reached)
		changed := false
		for bi := range cfg.Order {
			in, ok := inState(bi)
			if !ok {
				for k := edgeOff[bi]; k < edgeOff[bi+1]; k++ {
					if hasEdge[k] {
						hasEdge[k] = false
						changed = true
					}
				}
				continue
			}
			res.reached[bi] = true
			res.in[bi] = in
			out := sp.transfer(cfg.Order[bi], in)
			res.out[bi] = out
			if flowOut(bi, out) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res
}

// dedupSuccs returns a block's successors with a both-arms-same conditional
// branch collapsed to one edge (an edge cannot tell the arms apart).
func dedupSuccs(b *llvm.Block) []*llvm.Block {
	succs := b.Succs()
	if len(succs) == 2 && succs[0] == succs[1] {
		return succs[:1]
	}
	return succs
}
