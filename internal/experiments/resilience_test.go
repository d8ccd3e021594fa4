package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// TestEveryPassPanicIsolatedBisectedDegraded is the resilience acceptance
// sweep: for every registered unit of the adaptor pipeline, a panic
// injected into exactly that unit (for one kernel) must
//
//  1. never crash the process — the batch completes under the default
//     fail-fast policy because the fallback absorbs the failure,
//  2. be bisected to the correct unit by name, with a reproducing
//     quarantine bundle on disk,
//  3. degrade only the affected point: the victim's row is marked in the
//     table output, every other job is untouched.
func TestEveryPassPanicIsolatedBisectedDegraded(t *testing.T) {
	// Directives chosen so every optional MLIR pass is registered (gemm's
	// dependence structure refuses dataflow, which stays out of the
	// pipeline and therefore out of the registry for these directives).
	d := flow.Directives{
		Pipeline: true, II: 1, Unroll: 2, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0},
	}
	units := flow.PipelineUnits("adaptor", d)
	if len(units) < 15 {
		t.Fatalf("registry suspiciously small: %d units", len(units))
	}
	kernels := []*polybench.Kernel{polybench.Get("gemm"), polybench.Get("atax")}
	cfgBase := Config{SizeName: "MINI", Target: hls.DefaultTarget()}

	for _, u := range units {
		u := u
		t.Run(u.String(), func(t *testing.T) {
			dir := t.TempDir()
			eng := engine.New(engine.Options{
				Fallback:   true,
				Quarantine: dir,
				FlowFaultHook: func(job engine.Job, flowName, stage, pass string) error {
					if job.Label == "gemm adaptor" && flowName == "adaptor" &&
						stage == u.Stage && pass == u.Pass {
						panic("injected panic in " + u.String())
					}
					return nil
				},
			})
			cfg := cfgBase
			cfg.Engine = eng
			var jobs []engine.Job
			for _, k := range kernels {
				js, err := pairJobs(k, cfg, d)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, js...)
			}
			// Default batch policy is fail-fast: the batch erroring out
			// would mean the panic escaped degradation.
			rs, err := eng.RunBatch(context.Background(), jobs, engine.BatchOptions{})
			if err != nil {
				t.Fatalf("panic in %s leaked out of the fallback: %v", u, err)
			}

			victim := rs[0]
			if !victim.Degraded || victim.Res == nil || victim.Res.Flow != "cxx-fallback" {
				t.Fatalf("victim did not degrade: %+v", victim)
			}
			if victim.Failure == nil || victim.Failure.Stage != u.Stage ||
				victim.Failure.Pass != u.Pass || victim.Failure.Kind != resilience.KindPanic {
				t.Errorf("failure misattributed: %+v, want %s", victim.Failure, u)
			}
			for i := 1; i < len(rs); i++ {
				if rs[i].Err != nil || rs[i].Degraded || rs[i].BundlePath != "" {
					t.Errorf("unaffected job %s touched: %+v", rs[i].Label, rs[i])
				}
			}

			if victim.BundlePath == "" {
				t.Fatal("no quarantine bundle written")
			}
			b, err := resilience.ReadBundle(victim.BundlePath)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Reproduced {
				t.Errorf("deterministic panic did not reproduce under bisection: %s", b.Note)
			}
			if b.Failure.Stage != u.Stage || b.Failure.Pass != u.Pass {
				t.Errorf("bisection pinned %s/%s, want %s", b.Failure.Stage, b.Failure.Pass, u)
			}
			if b.InputMLIR == "" {
				t.Error("bundle missing input MLIR")
			}

			tbl := pairsTable("FigX", "resilience sweep", pairsFromResults(kernels, rs))
			if !strings.HasSuffix(tbl.Rows[0][1], "*") {
				t.Errorf("degraded gemm row not marked: %v", tbl.Rows[0])
			}
			if strings.HasSuffix(tbl.Rows[1][1], "*") {
				t.Errorf("clean atax row marked degraded: %v", tbl.Rows[1])
			}
			if !strings.Contains(tbl.Note, "degraded") {
				t.Error("table note does not explain the degraded mark")
			}
		})
	}
}
