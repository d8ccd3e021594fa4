package oracle_test

import (
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir/passes"
	"repro/internal/oracle"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// TestWarmTableMiscompileSweep: verdicts shared across jobs never hide a
// miscompile. The 18-unit injected-miscompile sweep runs once with a cold
// table before every armed run, then again after clean runs over
// dse.Space() and the sweep's own directives have recorded a verdict for
// every program a clean job compiles. Every armed unit must fail as
// KindMiscompile at its own stage and pass, with the same error, both
// times.
func TestWarmTableMiscompileSweep(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	tgt := hls.DefaultTarget()
	d := flow.Directives{Pipeline: true, II: 1, Unroll: 2, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0}}
	units := flow.PipelineUnits("adaptor", d)
	if len(units) != 18 {
		t.Fatalf("adaptor pipeline has %d units, want 18", len(units))
	}
	sweep := func(cold bool) []string {
		var errs []string
		for _, u := range units {
			if cold {
				oracle.ResetShared()
			}
			opts := flow.Options{VerifySemantics: true, InjectMiscompile: u.String()}
			_, err := flow.AdaptorFlowWith(k.Build(s), k.Name, d, tgt, opts)
			pf, ok := resilience.AsPassFailure(err)
			if !ok || pf.Kind != resilience.KindMiscompile || pf.Stage != u.Stage || pf.Pass != u.Pass {
				t.Errorf("cold=%v: armed %s failed with %v, want a miscompile at that unit", cold, u, err)
				errs = append(errs, "")
				continue
			}
			errs = append(errs, err.Error())
		}
		return errs
	}
	cold := sweep(true)

	clean := flow.Options{VerifySemantics: true}
	for _, c := range append(dse.Space(), dse.Config{Label: "sweep", D: d}) {
		if _, err := flow.AdaptorFlowWith(k.Build(s), k.Name, c.D, tgt, clean); err != nil {
			t.Fatalf("clean adaptor run %s: %v", c.Label, err)
		}
		if _, err := flow.CxxFlowWith(k.Build(s), k.Name, c.D, tgt, clean); err != nil {
			t.Fatalf("clean cxx run %s: %v", c.Label, err)
		}
	}
	warm := sweep(false)
	for i, u := range units {
		if cold[i] != warm[i] {
			t.Errorf("armed %s: cold table %q, warm table %q", u, cold[i], warm[i])
		}
	}
}
