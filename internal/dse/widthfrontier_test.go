package dse

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// TestDeclaredFrontierUnchangedByWidthMachinery pins the explorer-level
// compatibility contract of the bitwidth engine: under the declared cost
// model, attaching a width map to the target moves nothing — every evaluated
// point and the whole Pareto frontier render byte-identically. Only an
// explicit -cost-model inferred may change areas.
func TestDeclaredFrontierUnchangedByWidthMachinery(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	in := engine.Input{Build: func() *mlir.Module { return k.Build(s) }, Top: k.Name}

	plain, err := Explore(in, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty width map that can never match a real instruction.
	carrying, err := Explore(in,
		hls.DefaultTarget().WithInferredWidths(map[*llvm.Instr]int{{}: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != carrying.String() {
		t.Errorf("declared-model frontier changed by an attached width map:\n--- plain\n%s\n--- carrying\n%s",
			plain, carrying)
	}
	if len(plain.Points) != len(carrying.Points) {
		t.Fatalf("point count diverged: %d vs %d", len(plain.Points), len(carrying.Points))
	}
	for i := range plain.Points {
		p, q := plain.Points[i], carrying.Points[i]
		if p.Label != q.Label || p.Latency() != q.Latency() || p.Area != q.Area {
			t.Errorf("point %d diverged: %s lat=%d area=%g vs %s lat=%d area=%g",
				i, p.Label, p.Latency(), p.Area, q.Label, q.Latency(), q.Area)
		}
	}
}

// TestInferredModelExploresCleanly runs the same sweep under the inferred
// cost model: every configuration must still evaluate (the width analysis
// runs inside synthesis for every point), and since the inferred formulas
// only ever narrow operators, no point's area may exceed its declared twin.
func TestInferredModelExploresCleanly(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	in := engine.Input{Build: func() *mlir.Module { return k.Build(s) }, Top: k.Name}

	declared, err := Explore(in, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	tgt := hls.DefaultTarget()
	tgt.CostModel = hls.CostInferred
	inferred, err := Explore(in, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred.Points) != len(declared.Points) {
		t.Fatalf("inferred sweep lost points: %d vs %d", len(inferred.Points), len(declared.Points))
	}
	declaredArea := map[string]float64{}
	declaredLat := map[string]int64{}
	for _, p := range declared.Points {
		declaredArea[p.Label] = p.Area
		declaredLat[p.Label] = p.Latency()
	}
	for _, p := range inferred.Points {
		if p.Area > declaredArea[p.Label] {
			t.Errorf("%s: inferred area %g exceeds declared %g (narrowing must never cost more)",
				p.Label, p.Area, declaredArea[p.Label])
		}
		if p.Latency() != declaredLat[p.Label] {
			t.Errorf("%s: latency moved under the inferred model: %d vs %d",
				p.Label, p.Latency(), declaredLat[p.Label])
		}
	}
}
