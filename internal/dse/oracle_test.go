package dse

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// TestOracleSamplingCleanSweep: a 1-in-4 oracle sweep over a correct
// pipeline evaluates the whole space with no errors and an unchanged
// frontier.
func TestOracleSamplingCleanSweep(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *mlir.Module { return k.Build(s) }
	tgt := hls.DefaultTarget()
	plain, err := ExploreWith(engine.Input{Build: build, Top: k.Name}, tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := ExploreWith(engine.Input{Build: build, Top: k.Name}, tgt, Options{Oracle: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled.Errors) != 0 {
		t.Fatalf("oracle flagged a correct sweep: %+v", sampled.Errors)
	}
	if len(sampled.Points) != len(plain.Points) {
		t.Errorf("sampling changed coverage: %d vs %d points", len(sampled.Points), len(plain.Points))
	}
	if len(sampled.Pareto) != len(plain.Pareto) {
		t.Errorf("sampling changed the frontier: %d vs %d", len(sampled.Pareto), len(plain.Pareto))
	}
}

// TestOracleCatchesMiscompileMidSweep: a miscompile injected into one
// configuration's pipeline is caught by the sampled oracle, recorded as a
// point error typed KindMiscompile, and the rest of the sweep completes.
func TestOracleCatchesMiscompileMidSweep(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	victim := Space()[0].Label
	eng := engine.New(engine.Options{
		ContinueOnError: true,
		MiscompileHook: func(j engine.Job) string {
			if j.Label == victim {
				return "llvm-opt/dce"
			}
			return ""
		},
	})
	res, err := ExploreWith(engine.Input{Build: func() *mlir.Module { return k.Build(s) }, Top: k.Name},
		hls.DefaultTarget(), Options{Engine: eng, Oracle: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("want exactly the victim config to fail, got %d errors: %+v", len(res.Errors), res.Errors)
	}
	pe := res.Errors[0]
	if pe.Label != victim {
		t.Errorf("failed label = %s, want %s", pe.Label, victim)
	}
	pf, ok := resilience.AsPassFailure(pe.Err)
	if !ok || pf.Kind != resilience.KindMiscompile {
		t.Fatalf("error not typed miscompile: %v", pe.Err)
	}
	if got := pf.Stage + "/" + pf.Pass; got != "llvm-opt/dce" {
		t.Errorf("localized to %s, want llvm-opt/dce", got)
	}
	if len(res.Points) != len(Space())-1 {
		t.Errorf("sweep did not continue past the miscompile: %d points", len(res.Points))
	}
	if got := eng.Stats().Miscompiles; got != 1 {
		t.Errorf("stats miscompiles = %d, want 1", got)
	}
	if !strings.Contains(res.Stats.String(), "miscompiles=1") {
		t.Errorf("stats string does not surface the miscompile: %q", res.Stats.String())
	}
}
