package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/castore"
	"repro/internal/flow"
	"repro/internal/resilience"
)

// openResultStore opens a castore in a fresh temp dir for one test.
func openResultStore(t *testing.T, dir string) *castore.Store {
	t.Helper()
	s, err := castore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResultStoreServesAcrossEngines proves the persistence contract: an
// engine writes results to the shared store, and a second engine — fresh
// process state, cold in-memory cache — serves the same jobs as DiskHits
// with byte-identical reports and zero flow executions.
func TestResultStoreServesAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	jobs := testBatch(t)

	first, err := New(Options{Workers: 4, ResultStore: openResultStore(t, dir)}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.DiskHit || r.CacheHit {
			t.Errorf("%s: unexpected hit on cold store", r.Label)
		}
	}

	e2 := New(Options{Workers: 4, ResultStore: openResultStore(t, dir)})
	second, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range second {
		if !r.DiskHit {
			t.Errorf("%s: expected disk hit from shared store", r.Label)
		}
		if r.CacheHit || r.Remote {
			t.Errorf("%s: at-most-one-source violated: %+v", r.Label, r)
		}
	}
	if digest(first) != digest(second) {
		t.Errorf("disk-served results diverge:\n%s\nvs\n%s", digest(first), digest(second))
	}
	st := e2.Stats()
	if st.DiskHits != int64(len(jobs)) {
		t.Errorf("DiskHits = %d, want %d", st.DiskHits, len(jobs))
	}
	if st.CPU != 0 {
		t.Errorf("disk hits must not count as executed CPU time: %v", st.CPU)
	}
}

// TestResultStoreFeedsMemCache: with both layers on, a disk hit populates
// the in-memory cache so the next lookup never touches the disk.
func TestResultStoreFeedsMemCache(t *testing.T) {
	dir := t.TempDir()
	job := kernelJob(t, "gemm", flow.Directives{Pipeline: true, II: 1})
	if _, err := New(Options{ResultStore: openResultStore(t, dir)}).
		Run(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}

	e := New(Options{Cache: true, ResultStore: openResultStore(t, dir)})
	rs, err := e.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].DiskHit {
		t.Fatalf("first lookup should be a disk hit: %+v", rs[0])
	}
	rs, err = e.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].CacheHit || rs[0].DiskHit {
		t.Fatalf("second lookup should come from the in-memory cache: %+v", rs[0])
	}
	st := e.Stats()
	if st.DiskHits != 1 || st.CacheHits != 1 {
		t.Fatalf("stats: disk=%d mem=%d, want 1 each", st.DiskHits, st.CacheHits)
	}
}

// TestResultStoreCorruptionNeverServed: records that are valid JSON but
// fail the digest, or digest-valid but schema-foreign, are quarantined and
// counted — the job re-executes and the store heals with a fresh record.
func TestResultStoreCorruptionNeverServed(t *testing.T) {
	dir := t.TempDir()
	job := kernelJob(t, "atax", flow.Directives{})
	clean, err := New(Options{ResultStore: openResultStore(t, dir)}).
		Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	key := Key(job)

	// Overwrite the record with a digest-valid envelope whose payload is
	// not a storedResult — the schema-foreign case castore cannot catch.
	foreign := []byte(`{"species":"capacitor"}`)
	path := filepath.Join(dir, key[:2], key+".json")
	env := fmt.Sprintf(`{"sum":%q,"payload":%s}`, castore.SumBytes(foreign), foreign)
	if err := os.WriteFile(path, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(Options{ResultStore: openResultStore(t, dir)})
	rs, err := e.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].DiskHit {
		t.Fatalf("corrupt record served as a disk hit")
	}
	if rs[0].Err != nil {
		t.Fatalf("job should have re-executed cleanly: %v", rs[0].Err)
	}
	if digest(rs) != digest(clean) {
		t.Errorf("re-executed result diverges from original:\n%s\nvs\n%s", digest(rs), digest(clean))
	}
	if st := e.Stats(); st.StoreCorrupt != 1 {
		t.Errorf("StoreCorrupt = %d, want 1", st.StoreCorrupt)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Errorf("corrupt record not moved aside: %v", err)
	}

	// The re-execution wrote a fresh record; a new engine disk-hits it.
	rs, err = New(Options{ResultStore: openResultStore(t, dir)}).
		Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].DiskHit {
		t.Errorf("store did not heal after quarantine: %+v", rs[0])
	}
}

// TestResultStorePutErrorCounted: a store that cannot persist degrades
// durability, never the batch — the job succeeds and StoreErrors counts.
func TestResultStorePutErrorCounted(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	store := openResultStore(t, dir)
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })

	e := New(Options{ResultStore: store})
	rs, err := e.Run(context.Background(), []Job{kernelJob(t, "gemm", flow.Directives{})})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil {
		t.Fatalf("unpersistable batch must still succeed: %v", rs[0].Err)
	}
	if st := e.Stats(); st.StoreErrors == 0 {
		t.Errorf("StoreErrors = 0, want nonzero after read-only dir")
	}
}

// TestRemoteHookHitAndFallback drives the remote layer with a fake
// daemon: a Spec-carrying job is served remotely when the hook accepts,
// falls back to embedded execution when it declines, and a Spec-less job
// never consults the hook at all.
func TestRemoteHookHitAndFallback(t *testing.T) {
	local := kernelJob(t, "gemm", flow.Directives{})
	localRes, err := New(Options{}).Run(context.Background(), []Job{local})
	if err != nil {
		t.Fatal(err)
	}

	remote := kernelJob(t, "gemm", flow.Directives{})
	remote.Spec = &RemoteSpec{Kernel: "gemm", Size: "MINI"}
	noSpec := kernelJob(t, "atax", flow.Directives{})

	var calls int
	serve := true
	e := New(Options{Remote: func(j Job) (JobResult, bool) {
		calls++
		if j.Spec == nil {
			t.Errorf("remote hook consulted for spec-less job %q", j.Label)
		}
		if !serve {
			return JobResult{}, false
		}
		r := localRes[0]
		r.Attempts = 0
		return r, true
	}})

	rs, err := e.Run(context.Background(), []Job{remote, noSpec})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Remote || rs[0].CacheHit || rs[0].DiskHit {
		t.Fatalf("spec job should be remote-served: %+v", rs[0])
	}
	if rs[0].Label != remote.Label || rs[0].Res.Report.LatencyCycles != localRes[0].Res.Report.LatencyCycles {
		t.Fatalf("remote result not used verbatim")
	}
	if rs[1].Remote {
		t.Fatalf("spec-less job must run locally")
	}
	if calls != 1 {
		t.Fatalf("remote hook calls = %d, want 1", calls)
	}

	// Unreachable server: ok=false falls back to embedded execution.
	serve = false
	rs, err = e.Run(context.Background(), []Job{remote})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Remote || rs[0].Err != nil || rs[0].Res == nil {
		t.Fatalf("fallback to embedded execution failed: %+v", rs[0])
	}
	if digest(rs) != digest(localRes) {
		t.Errorf("fallback result diverges from local:\n%s\nvs\n%s", digest(rs), digest(localRes))
	}
	if st := e.Stats(); st.RemoteHits != 1 {
		t.Errorf("RemoteHits = %d, want 1", st.RemoteHits)
	}
}

// TestRemoteErrorIsVerbatim: a server-side evaluation failure is the
// job's genuine outcome — the engine must not retry it locally.
func TestRemoteErrorIsVerbatim(t *testing.T) {
	job := kernelJob(t, "gemm", flow.Directives{})
	job.Spec = &RemoteSpec{Kernel: "gemm", Size: "MINI"}
	remoteErr := errors.New("server: directive rejected")
	e := New(Options{Remote: func(Job) (JobResult, bool) {
		return JobResult{Err: remoteErr}, true
	}})
	rs, err := e.Run(context.Background(), []Job{job})
	if err == nil || !errors.Is(err, remoteErr) {
		t.Fatalf("batch error = %v, want the remote error", err)
	}
	if !rs[0].Remote || !errors.Is(rs[0].Err, remoteErr) {
		t.Fatalf("remote error not verbatim: %+v", rs[0])
	}
}

// TestFaultHookedJobsStayLocal: a daemon cannot run this process's fault
// hooks, so an engine with one never offers a job to Remote. A miscompile
// armed on a verified job is caught here instead of hidden behind the
// clean result the daemon would serve.
func TestFaultHookedJobsStayLocal(t *testing.T) {
	clean, err := New(Options{}).Run(context.Background(), []Job{kernelJob(t, "gemm", flow.Directives{})})
	if err != nil {
		t.Fatal(err)
	}
	job := kernelJob(t, "gemm", flow.Directives{})
	job.Spec = &RemoteSpec{Kernel: "gemm", Size: "MINI"}
	job.VerifySemantics = true
	var calls int
	e := New(Options{
		ContinueOnError: true,
		Remote: func(Job) (JobResult, bool) {
			calls++
			return clean[0], true
		},
		MiscompileHook: func(Job) string { return "llvm-opt/cse" },
	})
	rs, err := e.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("remote hook calls = %d, want 0", calls)
	}
	if f := rs[0].Failure; rs[0].Remote || f == nil || f.Kind != resilience.KindMiscompile {
		t.Fatalf("armed miscompile not caught locally: remote=%v failure=%+v", rs[0].Remote, f)
	}
}

// TestDegradedNeverPersisted: a fallback (degraded) result must not land
// in the persistent store, or it would mask the direct path recovering.
func TestDegradedNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	job := kernelJob(t, "gemm", flow.Directives{})
	boom := errors.New("injected direct-path failure")
	fail := true
	e := New(Options{
		ResultStore: openResultStore(t, dir),
		Fallback:    true,
		FlowFaultHook: func(job Job, flowName, stage, pass string) error {
			if fail && firstUnit(stage, pass) {
				return boom
			}
			return nil
		},
	})
	// The hook fails the first unit of both flows, so Fallback cannot
	// rescue the job: it errors, and nothing must persist.
	rs, err := e.Run(context.Background(), []Job{job})
	if err == nil {
		t.Fatal("expected injected failure")
	}
	if rs[0].DiskHit {
		t.Fatal("failed job reported as disk hit")
	}
	store := openResultStore(t, dir)
	if n := store.Len(); n != 0 {
		t.Fatalf("failed result persisted: store has %d records", n)
	}

	// After recovery the clean result persists normally.
	fail = false
	if _, err := e.Run(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 1 {
		t.Fatalf("clean result not persisted: store has %d records", n)
	}
}
