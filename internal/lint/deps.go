package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/diag"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// better ranks carried pairs through the same base: an exact distance
// beats a direction-only verdict beats the structural fallback; among exact
// distances the smallest (most constraining) wins.
func better(p, than hls.CarriedPair) bool {
	rank := func(x hls.CarriedPair) int {
		switch {
		case x.Dep.Exact:
			return 0
		case !x.Structural:
			return 1
		default:
			return 2
		}
	}
	ra, rb := rank(p), rank(than)
	if ra != rb {
		return ra < rb
	}
	if ra == 0 {
		return p.Dep.Dist < than.Dep.Dist
	}
	return false
}

// checkLoopCarriedDep reports memory recurrences at every loop level: a
// value stored in one iteration and read in a later iteration of the same
// loop bounds any pipeline of that loop at RecMII. The pairs are the ones
// synthesis prices (hls.Analyses.Carried): the affine dependence engine
// decides a pair exactly where it can — reporting the dependence distance
// and exonerating provably independent pairs such as a[i] vs a[i+1] at the
// i level — and the structural same-address model covers non-affine
// accesses. This check ranks them per base and renders the best. The
// finding is informational — the code is correct — but it explains why an
// aggressive II will not be met (the hls-directives check escalates that
// case to a warning).
func checkLoopCarriedDep(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "loop-carried-dep"
	var bounds []hls.LoopBound
	for _, l := range ctx.Loops.Loops {
		best := map[llvm.Value]hls.CarriedPair{}
		ctx.Carried(l, func(p hls.CarriedPair) {
			base := hls.BaseOf(p.Ld.Args[0])
			if prev, ok := best[base]; !ok || better(p, prev) {
				best[base] = p
			}
		})
		// Report in a deterministic order: by the load's position.
		bases := make([]llvm.Value, 0, len(best))
		for base := range best {
			bases = append(bases, base)
		}
		slices.SortFunc(bases, func(a, b llvm.Value) int { return cmp.Compare(best[a].Ld.ID, best[b].Ld.ID) })
		for _, base := range bases {
			out = append(out, ctx.carriedDiag(check, &bounds, l, base, best[base]))
		}
	}
	return out
}

// carriedDiag renders one carried-dependence finding. Innermost loops report
// the scheduler's RecMII floor; outer loops carry no pipeline II of their
// own, so their findings state the distance or direction only.
func (ctx *FuncContext) carriedDiag(check string, bounds *[]hls.LoopBound, l *analysis.Loop, base llvm.Value, p hls.CarriedPair) diag.Diagnostic {
	var detail string
	switch {
	case p.Structural:
		detail = ""
	case p.Dep.Exact:
		detail = fmt.Sprintf("distance=%d, ", p.Dep.Dist)
	default:
		detail = "direction <, "
	}
	var msg string
	if l.IsInnermost() {
		rec := ctx.recMII(bounds, l)
		msg = fmt.Sprintf("loop %%%s carries a value through %s across iterations (%sRecMII=%d)",
			l.Header.Name, base.Ident(), detail, rec)
	} else {
		detail = strings.TrimSuffix(detail, ", ")
		if detail != "" {
			detail = " (" + detail + ")"
		}
		msg = fmt.Sprintf("loop %%%s carries a value through %s across iterations%s",
			l.Header.Name, base.Ident(), detail)
	}
	d := ctx.diag(diag.SevInfo, check, nil, p.Ld, msg,
		"pipelining this loop cannot achieve II below the recurrence latency")
	d.Explanation = ctx.carriedExplanation(l, p)
	return d
}

// carriedExplanation spells out the evidence: the two access functions and
// the dependence tests that decided the pair.
func (ctx *FuncContext) carriedExplanation(l *analysis.Loop, p hls.CarriedPair) string {
	eng := ctx.DepEngine()
	var sb strings.Builder
	if p.Structural {
		fmt.Fprintf(&sb, "the store and load use structurally identical, loop-invariant addresses (no affine verdict: %s)",
			strings.Join(p.Dep.Tests, ", "))
		return sb.String()
	}
	stForm, okS := eng.AccessForm(p.St.Args[1])
	ldForm, okL := eng.AccessForm(p.Ld.Args[0])
	if okS && okL {
		fmt.Fprintf(&sb, "store %s reaches load %s", stForm, ldForm)
	} else {
		sb.WriteString("store reaches load")
	}
	if p.Dep.Exact {
		fmt.Fprintf(&sb, " %d iteration(s) of %%%s later", p.Dep.Dist, l.Header.Name)
	} else {
		fmt.Fprintf(&sb, " in a later iteration of %%%s", l.Header.Name)
	}
	if len(p.Dep.Tests) > 0 {
		fmt.Fprintf(&sb, "; tests: %s", strings.Join(p.Dep.Tests, ", "))
	}
	return sb.String()
}
