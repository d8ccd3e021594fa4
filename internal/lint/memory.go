package lint

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/diag"
	"repro/internal/hls"
	"repro/internal/llvm"
)

// allocaInfo summarizes one alloca's pointer flow, as seen by the points-to
// analysis.
type allocaInfo struct {
	root *llvm.Instr
	// escaped holds the points-to escape reason ("" when the address never
	// left the function's view). Unlike the older syntactic closure, pointers
	// merged through phi/select stay tracked — only calls, stores-as-value,
	// integer casts, returns, and aggregate inserts escape.
	escaped   bool
	escReason string
	loads     []*llvm.Instr
	stores    []*llvm.Instr
}

// collectAllocas finds every alloca with its escape verdict and the loads and
// stores that may touch it, all derived from the points-to relation.
func collectAllocas(ctx *FuncContext) []*allocaInfo {
	pts := ctx.PointsTo()
	var infos []*allocaInfo
	for _, b := range ctx.F.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpAlloca {
				ai := &allocaInfo{root: in}
				ai.escReason, ai.escaped = pts.Escaped(in)
				infos = append(infos, ai)
			}
		}
	}
	if len(infos) == 0 {
		return nil
	}
	for _, b := range ctx.F.Blocks {
		for _, in := range b.Instrs {
			for _, ai := range infos {
				switch in.Op {
				case llvm.OpLoad:
					if pts.Touches(in.Args[0], ai.root) {
						ai.loads = append(ai.loads, in)
					}
				case llvm.OpStore:
					if pts.Touches(in.Args[1], ai.root) {
						ai.stores = append(ai.stores, in)
					}
				}
			}
		}
	}
	return infos
}

// checkUninitLoad flags loads from non-escaping allocas that no execution
// path has stored to: forward may-init dataflow over the CFG (a block's
// entry state is the union over predecessors), then an in-order scan inside
// each block. Because the merge is a union and any store that MAY touch the
// allocation counts as initialization, a finding means *no* path from entry
// initializes the location — reading truly undefined memory, which
// interpretation and synthesis both turn into garbage. A load is only flagged
// when its address provably points into the allocation and nowhere else.
func checkUninitLoad(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "uninit-load"
	pts := ctx.PointsTo()
	for _, ai := range collectAllocas(ctx) {
		if ai.escaped || len(ai.loads) == 0 {
			continue
		}
		gen := map[*llvm.Block]bool{}
		for _, st := range ai.stores {
			gen[st.Parent] = true
		}
		// Forward may-init to fixpoint over reverse postorder.
		in := map[*llvm.Block]bool{}
		outB := map[*llvm.Block]bool{}
		for changed := true; changed; {
			changed = false
			for _, b := range ctx.CFG.Order {
				inb := false
				for _, p := range ctx.CFG.Preds(b) {
					if outB[p] {
						inb = true
						break
					}
				}
				ob := inb || gen[b]
				if in[b] != inb || outB[b] != ob {
					in[b], outB[b] = inb, ob
					changed = true
				}
			}
		}
		for _, b := range ctx.CFG.Order {
			cur := in[b]
			for _, i := range b.Instrs {
				switch i.Op {
				case llvm.OpStore:
					if pts.Touches(i.Args[1], ai.root) {
						cur = true
					}
				case llvm.OpLoad:
					if pts.DerivedFrom(i.Args[0], ai.root) && !cur {
						d := ctx.diag(diag.SevError, check, b, i,
							fmt.Sprintf("load from %s reads memory no path has initialized", ai.root.Ident()),
							"store an initial value on every path before this load")
						d.Explanation = fmt.Sprintf("address %s points to %s; no store into the allocation reaches this load on any path",
							i.Args[0].Ident(), pts.Describe(i.Args[0]))
						out = append(out, d)
					}
				}
			}
		}
	}
	return out
}

// mustAliasByElem reports whether the points-to analysis proves a and b
// address exactly the same element: each resolves to a single location with a
// known element index, and the locations are equal. This extends the
// scheduler's structural SameAddress to GEP chains that compute the same
// constant element through different expressions.
func mustAliasByElem(pts *absint.PointsToResult, a, b llvm.Value) bool {
	sa, oka := pts.Targets(a)
	sb, okb := pts.Targets(b)
	return oka && okb && len(sa) == 1 && len(sb) == 1 &&
		sa[0] == sb[0] && sa[0].Elem != absint.ElemUnknown
}

// checkDeadStore flags a store overwritten by a later same-address store in
// the same block with no intervening read: the first store's value can never
// be observed. The window ends at a load that may alias the stored address
// (points-to disproves loads of other arrays and other constant elements);
// calls end the window only when the stored-to allocation escapes — a callee
// cannot read an address it was never given. Same-address is the scheduler's
// structural SameAddress, extended by points-to element equality.
func checkDeadStore(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "dead-store"
	pts := ctx.PointsTo()
	mayEscape := func(addr llvm.Value) bool {
		targets, ok := pts.Targets(addr)
		if !ok {
			return true
		}
		for _, l := range targets {
			if _, esc := pts.Escaped(l.Root); esc {
				return true
			}
		}
		return false
	}
	for _, b := range ctx.F.Blocks {
		for i, st := range b.Instrs {
			if st.Op != llvm.OpStore {
				continue
			}
		window:
			for _, later := range b.Instrs[i+1:] {
				switch later.Op {
				case llvm.OpCall:
					if mayEscape(st.Args[1]) {
						break window
					}
				case llvm.OpLoad:
					if pts.MayAlias(later.Args[0], st.Args[1]) {
						break window
					}
				case llvm.OpStore:
					if hls.SameAddress(st.Args[1], later.Args[1]) ||
						mustAliasByElem(pts, st.Args[1], later.Args[1]) {
						d := ctx.diag(diag.SevWarning, check, b, st,
							fmt.Sprintf("store to %s is overwritten before any read", st.Args[1].Ident()),
							"remove the dead store or reorder the computation")
						d.Explanation = fmt.Sprintf("address %s points to %s; the next store to the same element precedes every read",
							st.Args[1].Ident(), pts.Describe(st.Args[1]))
						out = append(out, d)
						break window
					}
				}
			}
		}
	}
	return out
}

// checkDeadAlloca flags non-escaping allocas that are never loaded: the
// allocation (and every store into it) is dead weight that synthesis would
// still spend memory ports and BRAM on.
func checkDeadAlloca(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "dead-alloca"
	for _, ai := range collectAllocas(ctx) {
		if ai.escaped || len(ai.loads) > 0 {
			continue
		}
		msg := fmt.Sprintf("local allocation %s is never read", ai.root.Ident())
		if len(ai.stores) > 0 {
			msg += fmt.Sprintf(" (%d store(s) into it are dead)", len(ai.stores))
		}
		out = append(out, ctx.diag(diag.SevWarning, check, ai.root.Parent, ai.root,
			msg, "delete the allocation and its stores"))
	}
	return out
}
