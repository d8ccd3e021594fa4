package lint

import (
	"fmt"
	"strings"

	"repro/internal/deptest"
	"repro/internal/diag"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// loopMemInstrs returns every load/store inside l in reverse postorder,
// including nested-loop bodies: an outer loop can carry a dependence through
// accesses that live in its children.
func (ctx *FuncContext) loopMemInstrs(l *analysis.Loop) []*llvm.Instr {
	var out []*llvm.Instr
	for _, b := range ctx.CFG.Order {
		if !l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == llvm.OpLoad || in.Op == llvm.OpStore {
				out = append(out, in)
			}
		}
	}
	return out
}

// carriedFinding is the best (most precise) carried-dependence evidence for
// one base array at one loop level.
type carriedFinding struct {
	ld     *llvm.Instr
	st     *llvm.Instr
	cd     deptest.CarriedDep
	legacy bool // structural same-address fallback, no affine verdict
}

// better ranks findings for the same base: an exact distance beats a
// direction-only verdict beats the structural fallback; among exact
// distances the smallest (most constraining) wins.
func (f carriedFinding) better(than carriedFinding) bool {
	rank := func(x carriedFinding) int {
		switch {
		case x.cd.Exact:
			return 0
		case !x.legacy:
			return 1
		default:
			return 2
		}
	}
	ra, rb := rank(f), rank(than)
	if ra != rb {
		return ra < rb
	}
	if ra == 0 {
		return f.cd.Dist < than.cd.Dist
	}
	return false
}

// checkLoopCarriedDep reports memory recurrences at every loop level: a
// value stored in one iteration and read in a later iteration of the same
// loop bounds any pipeline of that loop at RecMII. The affine dependence
// engine decides the pair exactly where it can — reporting the dependence
// distance and exonerating provably independent pairs such as a[i] vs
// a[i+1] at the i level — and the structural same-address model covers
// non-affine accesses. The finding is informational — the code is correct —
// but it explains why an aggressive II will not be met (the hls-directives
// check escalates that case to a warning).
func checkLoopCarriedDep(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "loop-carried-dep"
	eng := ctx.DepEngine()
	for _, l := range ctx.Loops.Loops {
		instrs := ctx.loopMemInstrs(l)
		best := map[llvm.Value]carriedFinding{}
		for _, ld := range instrs {
			if ld.Op != llvm.OpLoad {
				continue
			}
			for _, st := range instrs {
				if st.Op != llvm.OpStore || !ctx.PointsTo().MayAlias(ld.Args[0], st.Args[1]) {
					continue
				}
				f := carriedFinding{ld: ld, st: st, cd: eng.Carried(l, st, ld)}
				switch f.cd.Res {
				case deptest.Independent:
					continue
				case deptest.Unknown:
					// Conservative summarization: the structural model, which
					// also covers accesses inside nested loops.
					if !hls.SameAddress(ld.Args[0], st.Args[1]) ||
						hls.DependsOnLoopPhi(ld.Args[0], l.Header) {
						continue
					}
					f.legacy = true
				}
				base := hls.BaseOf(ld.Args[0])
				if prev, ok := best[base]; !ok || f.better(prev) {
					best[base] = f
				}
			}
		}
		// Report in a deterministic order: by the load's position.
		var bases []llvm.Value
		for base := range best {
			bases = append(bases, base)
		}
		for i := 0; i < len(bases); i++ {
			for j := i + 1; j < len(bases); j++ {
				if ctx.less(best[bases[j]].ld, best[bases[i]].ld) {
					bases[i], bases[j] = bases[j], bases[i]
				}
			}
		}
		for _, base := range bases {
			f := best[base]
			out = append(out, ctx.carriedDiag(check, l, base, f))
		}
	}
	return out
}

// less orders instructions by block position, then instruction position.
func (ctx *FuncContext) less(a, b *llvm.Instr) bool {
	ba, bb := ctx.blockPos[a.Parent], ctx.blockPos[b.Parent]
	if ba != bb {
		return ba < bb
	}
	return ctx.instrPos[a] < ctx.instrPos[b]
}

// carriedDiag renders one carried-dependence finding. Innermost loops report
// the scheduler's RecMII floor; outer loops carry no pipeline II of their
// own, so their findings state the distance or direction only.
func (ctx *FuncContext) carriedDiag(check string, l *analysis.Loop, base llvm.Value, f carriedFinding) diag.Diagnostic {
	var detail string
	switch {
	case f.legacy:
		detail = ""
	case f.cd.Exact:
		detail = fmt.Sprintf("distance=%d, ", f.cd.Dist)
	default:
		detail = "direction <, "
	}
	var msg string
	if l.IsInnermost() {
		rec := ctx.recMII(l)
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
	d := ctx.diag(diag.SevInfo, check, nil, f.ld, msg,
		"pipelining this loop cannot achieve II below the recurrence latency")
	d.Explanation = ctx.carriedExplanation(l, f)
	return d
}

// carriedExplanation spells out the evidence: the two access functions and
// the dependence tests that decided the pair.
func (ctx *FuncContext) carriedExplanation(l *analysis.Loop, f carriedFinding) string {
	eng := ctx.DepEngine()
	var sb strings.Builder
	if f.legacy {
		fmt.Fprintf(&sb, "the store and load use structurally identical, loop-invariant addresses (no affine verdict: %s)",
			strings.Join(f.cd.Tests, ", "))
		return sb.String()
	}
	stForm, okS := eng.AccessForm(f.st.Args[1])
	ldForm, okL := eng.AccessForm(f.ld.Args[0])
	if okS && okL {
		fmt.Fprintf(&sb, "store %s reaches load %s", stForm, ldForm)
	} else {
		sb.WriteString("store reaches load")
	}
	if f.cd.Exact {
		fmt.Fprintf(&sb, " %d iteration(s) of %%%s later", f.cd.Dist, l.Header.Name)
	} else {
		fmt.Fprintf(&sb, " in a later iteration of %%%s", l.Header.Name)
	}
	if len(f.cd.Tests) > 0 {
		fmt.Fprintf(&sb, "; tests: %s", strings.Join(f.cd.Tests, ", "))
	}
	return sb.String()
}
