package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// kernelJob builds one adaptor-flow job for a polybench kernel at MINI.
func kernelJob(t testing.TB, name string, d flow.Directives) Job {
	t.Helper()
	k := polybench.Get(name)
	if k == nil {
		t.Fatalf("unknown kernel %q", name)
	}
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Label:      name,
		Kind:       KindAdaptor,
		Build:      func() *mlir.Module { return k.Build(s) },
		Top:        k.Name,
		Directives: d,
		Target:     hls.DefaultTarget(),
		CacheScope: "MINI",
	}
}

// testBatch is a mixed batch over several kernels and directive sets.
func testBatch(t testing.TB) []Job {
	var jobs []Job
	for _, name := range []string{"gemm", "jacobi2d", "conv2d", "atax"} {
		jobs = append(jobs,
			kernelJob(t, name, flow.Directives{}),
			kernelJob(t, name, flow.Directives{Pipeline: true, II: 1}))
	}
	for i := range jobs {
		jobs[i].Label = fmt.Sprintf("%s#%d", jobs[i].Label, i)
	}
	return jobs
}

// digest summarizes the deterministic parts of a result slice.
func digest(rs []JobResult) string {
	var sb strings.Builder
	for _, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%s err=%v\n", r.Label, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%s lat=%d lut=%d dsp=%d\n",
			r.Label, r.Res.Report.LatencyCycles, r.Res.Report.LUT, r.Res.Report.DSP)
	}
	return sb.String()
}

func TestParallelMatchesSerial(t *testing.T) {
	jobs := testBatch(t)
	serial, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := New(Options{Workers: w}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if digest(par) != digest(serial) {
			t.Errorf("workers=%d: results diverge from serial\nserial:\n%s\nparallel:\n%s",
				w, digest(serial), digest(par))
		}
	}
}

func TestResultOrderMatchesJobOrder(t *testing.T) {
	jobs := testBatch(t)
	rs, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(jobs) {
		t.Fatalf("want %d results, got %d", len(jobs), len(rs))
	}
	for i := range rs {
		if rs[i].Label != jobs[i].Label {
			t.Errorf("result %d: want label %q, got %q", i, jobs[i].Label, rs[i].Label)
		}
	}
}

func TestCacheHitsAreIdentical(t *testing.T) {
	jobs := testBatch(t)
	e := New(Options{Workers: 4, Cache: true})
	first, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.CacheHit {
			t.Errorf("%s: unexpected hit on cold cache", r.Label)
		}
	}
	second, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range second {
		if !r.CacheHit {
			t.Errorf("%s: expected warm-cache hit", r.Label)
		}
	}
	if digest(first) != digest(second) {
		t.Errorf("cached results diverge:\n%s\nvs\n%s", digest(first), digest(second))
	}
	st := e.Stats()
	if st.CacheHits != int64(len(jobs)) || st.CacheMisses != int64(len(jobs)) {
		t.Errorf("stats: hits=%d misses=%d, want %d each", st.CacheHits, st.CacheMisses, len(jobs))
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
	if len(st.Phases) == 0 || st.CPU <= 0 {
		t.Errorf("stats should aggregate phase timings: %+v", st)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	base := kernelJob(t, "gemm", flow.Directives{})
	same := base
	// II is meaningless without Pipeline; Unroll <= 1 is off.
	same.Directives = flow.Directives{II: 7, Unroll: 1}
	if Key(base) != Key(same) {
		t.Error("canonically-equal directives should share a key")
	}
	piped := base
	piped.Directives = flow.Directives{Pipeline: true}
	pipedII1 := base
	pipedII1.Directives = flow.Directives{Pipeline: true, II: 1}
	if Key(piped) != Key(pipedII1) {
		t.Error("Pipeline with II<=0 should canonicalize to II=1")
	}
	if Key(base) == Key(piped) {
		t.Error("pipelining must change the key")
	}
	otherKind := base
	otherKind.Kind = KindCxx
	if Key(base) == Key(otherKind) {
		t.Error("flow kind must change the key")
	}
	otherScope := base
	otherScope.CacheScope = "SMALL"
	if Key(base) == Key(otherScope) {
		t.Error("cache scope must change the key")
	}
	otherTgt := base
	otherTgt.Target.ClockNs = 5
	if Key(base) == Key(otherTgt) {
		t.Error("target clock must change the key")
	}
	relabeled := base
	relabeled.Label = "something-else"
	if Key(base) != Key(relabeled) {
		t.Error("labels must not participate in the key")
	}
}

func TestFreshModuleContractEnforced(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	stale := k.Build(s)
	job := kernelJob(t, "gemm", flow.Directives{})
	job.Build = func() *mlir.Module { return stale }
	rs, err := New(Options{Workers: 2, ContinueOnError: true}).Run(
		context.Background(), []Job{job, job})
	if err != nil {
		t.Fatal(err)
	}
	var dup int
	for _, r := range rs {
		if r.Err != nil && strings.Contains(r.Err.Error(), "fresh module") {
			dup++
		}
	}
	if dup == 0 {
		t.Error("reusing one module across jobs should be rejected")
	}
}

func TestFailFastReturnsLowestIndexedError(t *testing.T) {
	jobs := testBatch(t)
	bad := jobs[3]
	bad.Kind = Kind("bogus")
	bad.Label = "bad"
	jobs[3] = bad
	rs, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("want batch error")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("batch error should name the first failing job: %v", err)
	}
	// Jobs before the failure always carry genuine results.
	for i := 0; i < 3; i++ {
		if rs[i].Err != nil {
			t.Errorf("job %d before the failure should have succeeded: %v", i, rs[i].Err)
		}
	}
}

func TestContinueOnErrorKeepsGoing(t *testing.T) {
	jobs := testBatch(t)
	bad := jobs[0]
	bad.Kind = Kind("bogus")
	bad.Label = "bad"
	jobs[0] = bad
	rs, err := New(Options{Workers: 4, ContinueOnError: true}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("continue-on-error batches should not fail: %v", err)
	}
	if rs[0].Err == nil {
		t.Error("bad job should record its error")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Err != nil {
			t.Errorf("%s: should have run despite earlier failure: %v", rs[i].Label, rs[i].Err)
		}
	}
}

func TestPerJobTimeout(t *testing.T) {
	job := kernelJob(t, "gemm", flow.Directives{})
	rs, err := New(Options{ContinueOnError: true}).RunBatch(context.Background(),
		[]Job{job}, BatchOptions{ContinueOnError: true, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "timeout") {
		t.Errorf("want timeout error, got %v", rs[0].Err)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Options{}).Run(ctx, testBatch(t))
	if err != context.Canceled {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestCacheStaysBounded sends more distinct points (target clocks) through
// one caching engine than the cache holds: it keeps at most cacheEntries
// results, and a point added after the overflow still hits with a result
// byte-identical to its miss.
func TestCacheStaysBounded(t *testing.T) {
	in, err := RemoteSpec{Top: "axpy", MLIR: `module {
  func.func @axpy(%arg0: memref<16xf32>, %arg1: memref<16xf32>) {
    affine.for %1 = 0 to 16 step 1 {
      %2 = affine.load %arg0[%1] : memref<16xf32>
      %3 = affine.load %arg1[%1] : memref<16xf32>
      %4 = arith.addf %2, %3 : f32
      affine.store %4, %arg1[%1] : memref<16xf32>
    }
    func.return
  }
}`}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	point := func(i int) Job {
		tgt := hls.DefaultTarget()
		tgt.ClockNs = 10 + float64(i)/1024
		return in.Job(KindAdaptor, flow.Directives{}, tgt)
	}
	jobs := make([]Job, cacheEntries+64)
	for i := range jobs {
		jobs[i] = point(i)
	}
	e := New(Options{Workers: 2, Cache: true})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.Len(); n != cacheEntries {
		t.Fatalf("cache holds %d results after %d distinct points, want its bound %d", n, len(jobs), cacheEntries)
	}
	last := []Job{point(len(jobs))}
	miss, err := e.Run(context.Background(), last)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := e.Run(context.Background(), last)
	if err != nil {
		t.Fatal(err)
	}
	if miss[0].CacheHit || !hit[0].CacheHit {
		t.Fatalf("want a miss then a hit, got hit=%t then hit=%t", miss[0].CacheHit, hit[0].CacheHit)
	}
	render := func(r JobResult) string {
		js, err := json.Marshal(r.Res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return string(js) + "\n" + r.Res.Report.String() + "\n" + r.Res.LLVM.Print()
	}
	if render(miss[0]) != render(hit[0]) {
		t.Errorf("hit differs from its miss:\n%s\nvs\n%s", render(miss[0]), render(hit[0]))
	}
	if n := e.cache.Len(); n > cacheEntries {
		t.Errorf("cache holds %d results, bound %d", n, cacheEntries)
	}
}
