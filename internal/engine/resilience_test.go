package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/resilience"
)

// firstUnit reports whether (stage, pass) is the job's first unit, where
// the fault-hook tests fail an attempt before the flow does any work.
func firstUnit(stage, pass string) bool { return stage == "mlir-opt" && pass == "hls-mark-top" }

// TestRetryRecoversTransientFault: an injected transient fault consumes
// attempts until it clears; the job succeeds, the retries are counted, and
// the engine paused for the job's own backoff before each retry.
func TestRetryRecoversTransientFault(t *testing.T) {
	jobs := []Job{kernelJob(t, "gemm", flow.Directives{})}
	var calls atomic.Int32
	e := New(Options{
		Retries: 3,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if firstUnit(stage, pass) && calls.Add(1) <= 2 {
				return fmt.Errorf("injected: %w", context.DeadlineExceeded)
			}
			return nil
		},
	})
	start := time.Now()
	rs, err := e.Run(context.Background(), jobs)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil || rs[0].Res == nil {
		t.Fatalf("retries should have recovered the job: %+v", rs[0])
	}
	var paused time.Duration
	for attempt := 1; attempt <= 2; attempt++ {
		d := resilience.Backoff(Key(jobs[0]), attempt)
		if step := resilience.DefaultBase << (attempt - 1); d < step || d >= step*3/2 {
			t.Errorf("attempt %d: delay %s outside [%s, %s)", attempt, d, step, step*3/2)
		}
		paused += d
	}
	if wall < paused {
		t.Errorf("batch took %s, less than the job's two backoff delays (%s)", wall, paused)
	}
	if rs[0].Attempts != 3 {
		t.Errorf("want 3 attempts (2 faults + 1 success), got %d", rs[0].Attempts)
	}
	if got := e.Stats().Retries; got != 2 {
		t.Errorf("stats retries = %d, want 2", got)
	}
}

// TestDeterministicFailureDoesNotRetry: re-running identical input through
// deterministic code cannot help, so plain errors burn exactly one attempt.
func TestDeterministicFailureDoesNotRetry(t *testing.T) {
	boom := errors.New("deterministic failure")
	var calls atomic.Int32
	e := New(Options{
		Retries: 5,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if !firstUnit(stage, pass) {
				return nil
			}
			calls.Add(1)
			return boom
		},
	})
	rs, _ := e.Run(context.Background(), []Job{kernelJob(t, "gemm", flow.Directives{})})
	if !errors.Is(rs[0].Err, boom) {
		t.Fatalf("want injected error, got %v", rs[0].Err)
	}
	if rs[0].Attempts != 1 || calls.Load() != 1 {
		t.Errorf("deterministic failure retried: attempts=%d calls=%d", rs[0].Attempts, calls.Load())
	}
}

// TestTimeoutInterruptsAtPassBoundary is the never-terminating-pass
// regression: a pass that blocks forever must not wedge the worker — the
// job returns at its timeout — and once the pass is released, the
// abandoned flow goroutine observes the cancelled context at the next
// pass boundary and unwinds instead of running the rest of the pipeline.
func TestTimeoutInterruptsAtPassBoundary(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var passesAfter atomic.Int32
	e := New(Options{
		Timeout: 50 * time.Millisecond,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if stage == "llvm-opt" && pass == "constfold" {
				close(entered)
				<-release
			}
			if stage == "llvm-opt" && pass == "dce" {
				passesAfter.Add(1)
			}
			return nil
		},
	})
	start := time.Now()
	rs, _ := e.RunBatch(context.Background(), []Job{kernelJob(t, "gemm", flow.Directives{})},
		BatchOptions{ContinueOnError: true, Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)

	select {
	case <-entered:
	default:
		t.Fatal("blocking pass never ran")
	}
	if rs[0].Err == nil || !errors.Is(rs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error while the pass blocks, got %v", rs[0].Err)
	}
	if !resilience.Transient(rs[0].Err) {
		t.Errorf("timeout should classify transient: %v", rs[0].Err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("worker wedged behind the blocking pass (%s)", elapsed)
	}

	// Release the pass: the abandoned goroutine must stop at the next
	// boundary, so the downstream dce unit never executes.
	close(release)
	time.Sleep(100 * time.Millisecond)
	if n := passesAfter.Load(); n != 0 {
		t.Errorf("flow kept running past the cancelled boundary: %d downstream passes", n)
	}
}

// TestFallbackAndQuarantine: a deterministic direct-path crash degrades
// the job to the C++ baseline and leaves a reproducing bisection bundle
// in quarantine; unaffected jobs in the batch are untouched.
func TestFallbackAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{
		Fallback:   true,
		Quarantine: dir,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if job.Label == "gemm" && flowName == "adaptor" && pass == "adaptor" {
				panic("injected adaptor crash")
			}
			return nil
		},
	})
	jobs := []Job{
		kernelJob(t, "gemm", flow.Directives{Pipeline: true, II: 1}),
		kernelJob(t, "atax", flow.Directives{Pipeline: true, II: 1}),
	}
	rs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	g := rs[0]
	if g.Err != nil || !g.Degraded || g.Res == nil || g.Res.Flow != "cxx-fallback" {
		t.Fatalf("gemm should degrade to the C++ path: %+v", g)
	}
	if g.Failure == nil || g.Failure.Pass != "adaptor" || g.Failure.Kind != resilience.KindPanic {
		t.Errorf("direct-path failure not attached: %+v", g.Failure)
	}
	if g.BundlePath == "" {
		t.Fatal("no quarantine bundle written")
	}
	b, err := resilience.ReadBundle(g.BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reproduced || b.Failure.Pass != "adaptor" || b.Failure.Stage != "adaptor" {
		t.Errorf("bundle did not pin the offending pass: %+v", b.Failure)
	}
	if b.InputMLIR == "" || !strings.Contains(b.InputMLIR, "gemm") {
		t.Error("bundle is not self-contained: missing input MLIR")
	}

	a := rs[1]
	if a.Err != nil || a.Degraded || a.BundlePath != "" {
		t.Errorf("unaffected job was touched: %+v", a)
	}

	st := e.Stats()
	if st.Degraded != 1 || st.Quarantined != 1 {
		t.Errorf("stats degraded=%d quarantined=%d, want 1/1", st.Degraded, st.Quarantined)
	}
}

// TestDegradedResultsAreNotCached: a degraded result must not be served
// from the cache once the direct path recovers.
func TestDegradedResultsAreNotCached(t *testing.T) {
	var arm atomic.Bool
	arm.Store(true)
	e := New(Options{
		Cache:    true,
		Fallback: true,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if arm.Load() && flowName == "adaptor" && pass == "adaptor" {
				panic("injected")
			}
			return nil
		},
	})
	job := kernelJob(t, "gemm", flow.Directives{})
	rs, err := e.Run(context.Background(), []Job{job})
	if err != nil || !rs[0].Degraded {
		t.Fatalf("first run should degrade: %+v err=%v", rs[0], err)
	}
	arm.Store(false)
	rs, err = e.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].CacheHit || rs[0].Degraded {
		t.Fatalf("recovered direct path must re-execute, not serve the degraded result: %+v", rs[0])
	}
	// The clean result is cacheable.
	rs, _ = e.Run(context.Background(), []Job{job})
	if !rs[0].CacheHit {
		t.Error("clean result was not cached")
	}
}

// TestConcurrentStatsUnderDegradedAndRetriedJobs is the race-detector
// check for engine.Stats and flow.Phases.Merge: two batches mixing
// degraded and retried jobs run concurrently on one engine while a reader
// polls Stats() and OnResult journals from every worker.
func TestConcurrentStatsUnderDegradedAndRetriedJobs(t *testing.T) {
	var faults sync.Map // label -> remaining transient faults
	e := New(Options{
		Workers:         4,
		ContinueOnError: true,
		Retries:         2,
		Fallback:        true,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if v, ok := faults.Load(job.Label); ok && firstUnit(stage, pass) && v.(*atomic.Int32).Add(-1) >= 0 {
				return context.DeadlineExceeded
			}
			if strings.HasSuffix(job.Label, "#1") && flowName == "adaptor" && pass == "adaptor" {
				panic("injected degrade")
			}
			return nil
		},
	})
	mkJobs := func(tag string) []Job {
		var jobs []Job
		for i, name := range []string{"gemm", "atax", "jacobi2d"} {
			j := kernelJob(t, name, flow.Directives{Pipeline: true, II: 1})
			j.Label = name + tag + "#" + string(rune('0'+i))
			jobs = append(jobs, j)
		}
		n := new(atomic.Int32)
		n.Store(1)
		faults.Store(jobs[0].Label, n)
		return jobs
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats().String()
			}
		}
	}()

	var journalMu sync.Mutex
	journal := map[string]bool{}
	var wg sync.WaitGroup
	for _, tag := range []string{"/a", "/b"} {
		wg.Add(1)
		go func(tag string) {
			defer wg.Done()
			rs, err := e.RunBatch(context.Background(), mkJobs(tag), BatchOptions{
				ContinueOnError: true,
				OnResult: func(i int, r JobResult) {
					journalMu.Lock()
					journal[r.Label] = r.Degraded
					journalMu.Unlock()
				},
			})
			if err != nil {
				t.Errorf("batch %s: %v", tag, err)
			}
			for _, r := range rs {
				if r.Err != nil {
					t.Errorf("batch %s job %s: %v", tag, r.Label, r.Err)
				}
			}
		}(tag)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := e.Stats()
	if st.Jobs != 6 || st.Errors != 0 {
		t.Errorf("jobs=%d errors=%d, want 6/0", st.Jobs, st.Errors)
	}
	if st.Retries != 2 {
		t.Errorf("retries=%d, want 2 (one transient fault per batch)", st.Retries)
	}
	if st.Degraded != 2 {
		t.Errorf("degraded=%d, want 2 (one #1 job per batch)", st.Degraded)
	}
	if len(journal) != 6 {
		t.Errorf("OnResult journaled %d entries, want 6", len(journal))
	}
}
