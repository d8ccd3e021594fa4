package dse

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

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
