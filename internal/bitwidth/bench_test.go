package bitwidth_test

import (
	"testing"

	"repro/internal/bitwidth"
	"repro/internal/flow"
	"repro/internal/polybench"
)

// BenchmarkBitwidth measures the full width-oracle cost on the kernel with
// the deepest loop structure (seidel2d): the known-bits fixpoint with branch
// refinement, the interval fixpoint it fuses with, the backward
// demanded-bits pass, and per-instruction width queries, OpWidth (what
// the inferred cost model prices synthesis at) among them. CI appends the result to the
// parseprint-bench.txt artifact.
func BenchmarkBitwidth(b *testing.B) {
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
	if f == nil {
		b.Fatalf("@%s not found", k.Name)
	}
	var ints int
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Ty != nil && in.Ty.IsInt() {
				ints++
			}
		}
	}
	b.ReportMetric(float64(ints), "intvals")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := bitwidth.Analyze(f)
		var w bitwidth.Width
		ops := 0
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Ty != nil && in.Ty.IsInt() {
					w = a.ValueWidth(in)
					_ = a.HWWidth(in)
					ops += a.OpWidth(in)
				}
			}
		}
		if ops == 0 || w.Bits == 0 {
			b.Fatal("analysis returned nothing")
		}
	}
}
