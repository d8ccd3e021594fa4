package dse

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/incr"
)

// TestIncrementalWarmSweepMatchesCold explores jacobi1d with the pre-check
// twice against one incremental store, each time through a fresh engine so
// the whole-flow cache never masks unit replay. The warm sweep must replay
// every unit and list the same Pareto frontier as the cold one.
func TestIncrementalWarmSweepMatchesCold(t *testing.T) {
	store := incr.NewMemStore()
	sweep := func() (string, engine.Stats) {
		eng := engine.New(engine.Options{Workers: 1, IncrStore: store})
		res := exploreOpts(t, "jacobi1d", Options{Engine: eng, CacheScope: "MINI", FailFast: true, Precheck: true})
		return paretoSig(res), eng.Stats()
	}
	cold, _ := sweep()
	warm, st := sweep()
	if warm != cold {
		t.Fatalf("warm replay diverges from the cold sweep:\n--- cold\n%s--- warm\n%s", cold, warm)
	}
	if st.UnitHits == 0 || st.UnitMisses != 0 {
		t.Errorf("warm sweep: %d units replayed, %d executed; want every unit replayed", st.UnitHits, st.UnitMisses)
	}
}
