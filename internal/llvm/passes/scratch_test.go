package passes_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm/passes"
	"repro/internal/polybench"
	"repro/internal/raceflag"
)

// TestCSEAllocs pins CSE's allocations on the pipelined adaptor flow's
// final gemm module at SMALL: its instruction snapshot, key map, literal
// table, chains and substitution table come from pools, so what is left is
// the CFG and the dominator tree.
func TestCSEAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	f := res.LLVM.FindFunc(k.Name)
	before := res.LLVM.Print()
	passes.CSE(f)
	if n := testing.AllocsPerRun(20, func() { passes.CSE(f) }); n > 7 {
		t.Errorf("CSE makes %.0f allocations, want at most 7", n)
	}
	if after := res.LLVM.Print(); after != before {
		t.Errorf("CSE changed the cleaned module")
	}
}
