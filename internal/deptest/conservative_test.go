package deptest_test

import (
	"testing"

	"repro/internal/deptest"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/polybench"
)

// TestNeverLessConservativeThanAlias is the corpus-wide soundness property:
// on every kernel × both flows, wherever the alias-plus-structural model
// detects a loop-carried recurrence (may-alias, same address, loop-invariant
// across the queried loop), the affine engine must answer Dependent or
// Unknown — never Independent — and the distance-aware RecMII must be at
// least the structural one. The engine is allowed to find MORE dependences
// (that is the point); it must never lose one the old model had.
func TestNeverLessConservativeThanAlias(t *testing.T) {
	tgt := hls.DefaultTarget()
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			runs := []struct {
				name string
				run  func() (*flow.Result, error)
			}{
				{"adaptor", func() (*flow.Result, error) {
					return flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, tgt)
				}},
				{"cxx", func() (*flow.Result, error) {
					return flow.CxxFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, tgt)
				}},
			}
			for _, fr := range runs {
				res, err := fr.run()
				if err != nil {
					t.Fatalf("%s flow: %v", fr.name, err)
				}
				f := res.LLVM.FindFunc(k.Name)
				if f == nil {
					t.Fatalf("%s flow: top @%s missing", fr.name, k.Name)
				}
				checkConservative(t, fr.name, f, tgt)
			}
		})
	}
}

func checkConservative(t *testing.T, flowName string, f *llvm.Function, tgt hls.Target) {
	t.Helper()
	a := hls.Analyze(f)
	pts, eng := a.PointsTo(), a.DepEngine()
	distanceAware := map[*llvm.Block]int{}
	for _, lb := range hls.LoopBounds(a, tgt) {
		distanceAware[lb.Header] = lb.RecMII
	}
	for _, l := range a.Loops.Loops {
		var instrs []*llvm.Instr
		for _, b := range a.CFG.Order {
			if l.Contains(b) {
				instrs = append(instrs, b.Instrs...)
			}
		}
		header := l.Header
		for _, ld := range instrs {
			if ld.Op != llvm.OpLoad {
				continue
			}
			for _, st := range instrs {
				if st.Op != llvm.OpStore || !pts.MayAlias(ld.Args[0], st.Args[1]) {
					continue
				}
				structuralRec := hls.SameAddress(ld.Args[0], st.Args[1]) &&
					!hls.DependsOnLoopPhi(ld.Args[0], header)
				if !structuralRec {
					continue
				}
				if cd := eng.Carried(l, st, ld); cd.Res == deptest.Independent {
					t.Errorf("%s flow, loop %%%s: engine exonerates a structural recurrence "+
						"(%%%s -> %%%s, tests %v)", flowName, header.Name, st.Name, ld.Name, cd.Tests)
				}
			}
		}
		if !l.IsInnermost() {
			continue
		}
		structural := tgt.RecMII(l, instrs, pts.MayAlias)
		if rec, ok := distanceAware[header]; !ok || rec < structural {
			t.Errorf("%s flow, loop %%%s: distance-aware RecMII=%d (found=%v) below structural RecMII=%d",
				flowName, header.Name, rec, ok, structural)
		}
	}
}
