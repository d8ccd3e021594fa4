package absint_test

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/polybench"
)

// mayAliasByTargets is the reference definition MayAlias walks the
// points-to sets directly to avoid: an unknown or empty set may alias
// anything, else two locations of the same root alias unless both element
// offsets are known and differ.
func mayAliasByTargets(r *absint.PointsToResult, a, b llvm.Value) bool {
	sa, oka := r.Targets(a)
	sb, okb := r.Targets(b)
	if !oka || !okb {
		return true
	}
	for _, la := range sa {
		for _, lb := range sb {
			if la.Root == lb.Root &&
				(la.Elem == absint.ElemUnknown || lb.Elem == absint.ElemUnknown || la.Elem == lb.Elem) {
				return true
			}
		}
	}
	return false
}

// TestMayAliasMatchesTargets compares MayAlias with the reference over
// every ordered pair of pointer operands in both flows' final modules of
// every polybench kernel.
func TestMayAliasMatchesTargets(t *testing.T) {
	d := flow.Directives{Pipeline: true, II: 1}
	pairs, aliased := 0, 0
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		ad, err := flow.AdaptorFlow(k.Build(s), k.Name, d, hls.DefaultTarget())
		if err != nil {
			t.Fatal(err)
		}
		cx, err := flow.CxxFlow(k.Build(s), k.Name, d, hls.DefaultTarget())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*llvm.Module{ad.LLVM, cx.LLVM} {
			f := m.FindFunc(k.Name)
			r := absint.PointsTo(f)
			var ptrs []llvm.Value
			seen := map[llvm.Value]bool{}
			add := func(v llvm.Value) {
				if v != nil && v.Type() != nil && v.Type().IsPtr() && !seen[v] {
					seen[v] = true
					ptrs = append(ptrs, v)
				}
			}
			for _, p := range f.Params {
				add(p)
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					add(in)
					for _, a := range in.Args {
						add(a)
					}
				}
			}
			for _, a := range ptrs {
				for _, b := range ptrs {
					got, want := r.MayAlias(a, b), mayAliasByTargets(r, a, b)
					if got != want {
						t.Fatalf("%s: MayAlias(%s, %s) = %v, reference %v", k.Name, a.Ident(), b.Ident(), got, want)
					}
					pairs++
					if got {
						aliased++
					}
				}
			}
		}
	}
	if aliased == 0 || aliased == pairs {
		t.Errorf("%d of %d pairs alias; the comparison needs both answers", aliased, pairs)
	}
}
