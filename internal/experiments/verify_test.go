package experiments

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/polybench"
)

// TestVerifyRidesOnEveryJob: Config.Verify is set on each job, so the jobs
// offered to a compile-service daemon carry the oracle too, and the
// verified Fig 4 renders the table the unverified one does.
func TestVerifyRidesOnEveryJob(t *testing.T) {
	plain, err := Fig4(miniCfg(engine.New(engine.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var offered, unverified int
	cfg := miniCfg(engine.New(engine.Options{Remote: func(j engine.Job) (engine.JobResult, bool) {
		mu.Lock()
		defer mu.Unlock()
		offered++
		if !j.VerifySemantics {
			unverified++
		}
		return engine.JobResult{}, false // declined: the job runs here
	}}))
	cfg.Verify = true
	verified, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verified.String(), plain.String(); got != want {
		t.Errorf("verified Fig 4 diverges\ngot:\n%s\nwant:\n%s", got, want)
	}
	if want := 2 * len(polybench.All()); offered != want {
		t.Errorf("remote hook offered %d jobs, want %d", offered, want)
	}
	if unverified != 0 {
		t.Errorf("%d of %d jobs offered without VerifySemantics", unverified, offered)
	}
}
