package experiments

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/raceflag"
)

// TestFig8IncrementalWarmGolden is the acceptance gate for incremental
// compilation: re-running the Fig8 MINI sweep against a warm unit store —
// the single-directive-change workflow, where every unchanged design point
// replays wholesale and an edited one would replay its prefix — must be at
// least 5x faster than the cold sweep and render a byte-identical table
// (results, phases, Pareto frontier). The warm run goes through a fresh
// engine, so nothing comes from the whole-flow result cache: every job
// re-dispatches and is rebuilt purely from unit replays.
func TestFig8IncrementalWarmGolden(t *testing.T) {
	plainTab, err := Fig8(miniCfg(engine.New(engine.Options{Workers: 1})))
	if err != nil {
		t.Fatal(err)
	}
	want := plainTab.String()

	store := incr.NewMemStore()
	newEng := func() *engine.Engine {
		return engine.New(engine.Options{Workers: 1, IncrStore: store})
	}

	coldEng := newEng()
	start := time.Now()
	coldTab, err := Fig8(miniCfg(coldEng))
	coldT := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := coldTab.String(); got != want {
		t.Errorf("cold incremental Fig8 diverges from plain\ngot:\n%s\nwant:\n%s", got, want)
	}
	coldStats := coldEng.Stats()
	if coldStats.UnitHits == 0 {
		t.Error("cold sweep should already share unit prefixes across design points")
	}

	warmEng := newEng()
	start = time.Now()
	warmTab, err := Fig8(miniCfg(warmEng))
	warmT := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := warmTab.String(); got != want {
		t.Errorf("warm incremental Fig8 diverges from plain\ngot:\n%s\nwant:\n%s", got, want)
	}
	warmStats := warmEng.Stats()
	if warmStats.UnitMisses != 0 {
		t.Errorf("warm sweep executed %d units live", warmStats.UnitMisses)
	}
	if warmStats.FullReplays != warmStats.Jobs {
		t.Errorf("warm sweep: %d/%d jobs fully replayed", warmStats.FullReplays, warmStats.Jobs)
	}

	if raceflag.Enabled {
		t.Logf("cold %v, warm %v (timing bound skipped under race detector)", coldT, warmT)
		return
	}
	if warmT*5 > coldT {
		t.Errorf("warm Fig8 sweep %v vs cold %v: speedup %.1fx < 5x",
			warmT, coldT, float64(coldT)/float64(warmT))
	}
	t.Logf("cold %v, warm %v (%.1fx), %d unit hits cold / %d warm",
		coldT, warmT, float64(coldT)/float64(warmT), coldStats.UnitHits, warmStats.UnitHits)
}
