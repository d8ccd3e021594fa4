package mlir_test

import (
	"testing"

	"repro/internal/mlir"
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
