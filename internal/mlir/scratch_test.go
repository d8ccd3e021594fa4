package mlir_test

import (
	"testing"

	"repro/internal/mlir"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/raceflag"
)

// TestWalkAllocs pins Walk and WalkPost to no allocations once the walk
// stack pool is warm: a walk pushes each block's ops on a pooled stack
// instead of copying them.
func TestWalkAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		t.Fatal(err)
	}
	m := k.Build(s)
	ops := 0
	pre := func(*mlir.Op) bool { ops++; return true }
	post := func(*mlir.Op) { ops++ }
	mlir.Walk(m.Op, pre)
	if n := testing.AllocsPerRun(20, func() { mlir.Walk(m.Op, pre) }); n != 0 {
		t.Errorf("Walk makes %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { mlir.WalkPost(m.Op, post) }); n != 0 {
		t.Errorf("WalkPost makes %.0f allocations, want 0", n)
	}
	if ops == 0 {
		t.Fatal("walks visited nothing")
	}
}

// TestPrintAllocs bounds Print on gemm at SMALL, pipelined, unrolled and
// partitioned, to the growth of its output: value and block names, types,
// affine maps and attributes are written into the output in place, and the
// printer's name tables come from a pool.
func TestPrintAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		t.Fatal(err)
	}
	m := k.Build(s)
	pm := passes.NewPassManager().Add(passes.MarkTop(k.Name), passes.PipelineInnermost(1),
		passes.PartitionAllArgs(passes.PartitionSpec{Kind: "cyclic", Factor: 2}), passes.MarkUnroll(2))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	text := m.Print()
	n := testing.AllocsPerRun(20, func() { m.Print() })
	t.Logf("%d bytes printed in %.0f allocations", len(text), n)
	// The output doubles about ten times on its way to its final size.
	if n > 16 {
		t.Errorf("Print makes %.0f allocations, want at most 16", n)
	}
}
