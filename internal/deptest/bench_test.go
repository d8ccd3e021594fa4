package deptest_test

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/deptest"
	"repro/internal/flow"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
	"repro/internal/polybench"
)

// BenchmarkDepTest measures the full dependence-analysis cost on the kernel
// that exercises the engine hardest (seidel2d: a 3-deep nest with nine
// may-alias stencil accesses): engine construction, every per-level Carried
// query the lint and scheduler issue, and the complete direction-vector
// enumeration of the nest. CI appends the result to the
// parseprint-bench.txt artifact.
func BenchmarkDepTest(b *testing.B) {
	k := polybench.Get("seidel2d")
	s, err := k.SizeOf("MINI")
	if err != nil {
		b.Fatal(err)
	}
	lm, err := flow.PrepareLLVM(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1})
	if err != nil {
		b.Fatal(err)
	}
	f := lm.FindFunc(k.Name)
	cfg := analysis.NewCFG(f)
	li := analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
	pts := absint.PointsTo(f)

	var mems []*llvm.Instr
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == llvm.OpLoad || in.Op == llvm.OpStore {
				mems = append(mems, in)
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := deptest.New(li, pts.MayAlias)
		for _, l := range li.Loops {
			for _, ld := range mems {
				if ld.Op != llvm.OpLoad {
					continue
				}
				for _, st := range mems {
					if st.Op == llvm.OpStore {
						eng.Carried(l, st, ld)
					}
				}
			}
		}
		for _, l := range li.Loops {
			if l.Parent == nil {
				eng.Edges(l)
			}
		}
	}
}
