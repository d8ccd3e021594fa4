// Package engine is the parallel flow-evaluation engine behind the
// design-space explorer and the experiments package: a bounded worker pool
// that fans AdaptorFlow/CxxFlow jobs — design points — across goroutines with
// deterministic result ordering, configurable first-error cancellation, and
// an optional content-addressed result cache keyed by the job's semantic
// identity (top function, directives, target, flow kind, caller scope).
//
// Concurrency contract: flows mutate their input module, so Job.Build MUST
// return a fresh *mlir.Module on every call. The engine enforces this at
// the API boundary by rejecting a module pointer it has already seen in
// the same batch.
//
// Determinism contract: results are returned in job order regardless of
// completion order, and under fail-fast cancellation the reported error is
// the lowest-indexed genuine failure — exactly the error a serial loop
// over the same jobs would have returned. Concurrency is an implementation
// detail; callers diffing engine output against a serial run must see
// byte-identical tables.
package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// Kind selects which flow a job runs.
type Kind string

const (
	KindAdaptor Kind = "adaptor" // flow.AdaptorFlow
	KindCxx     Kind = "cxx"     // flow.CxxFlow
)

// Job describes one flow evaluation: a design point of an input.
type Job struct {
	// Label identifies the job in results and error messages.
	Label string
	Kind  Kind
	// Build must return a fresh module on every call: flows mutate their
	// input in place. The engine rejects a pointer it has seen before in
	// the same batch.
	Build func() *mlir.Module
	// Top is the top-function name handed to the flow.
	Top        string
	Directives flow.Directives
	Target     hls.Target
	// CacheScope distinguishes jobs whose identity is not fully captured
	// by (Kind, Top, Directives, Target) — e.g. a problem-size preset or
	// a content hash of hand-written MLIR input. Jobs with equal cache
	// keys are assumed to produce equal results.
	CacheScope string
	// VerifySemantics runs this job under the differential oracle: the IR
	// is re-executed after every pipeline unit and compared against the
	// pristine input's reference run, so a pass that silently changes
	// results fails as KindMiscompile at the unit that broke it. It
	// participates in the cache key — a verified result and an unverified
	// one are distinct artifacts.
	VerifySemantics bool
	// Spec, when non-nil, is the input Build, Top and CacheScope were
	// resolved from, which makes the job shippable to a compile-service
	// daemon through Options.Remote. It never participates in the cache
	// key — (Kind, Top, CacheScope, Directives, Target) already are the
	// identity; Spec is transport, not semantics.
	Spec *RemoteSpec
}

// RemoteSpec is the one description of a job's input module: either a
// registered polybench kernel at a size preset (Kernel+Size), or raw MLIR
// text and its top function (MLIR+Top). Resolve turns it into the builder,
// top name and cache scope every job on that input shares; a thin client
// ships it with the job's directives and target, and the daemon resolves
// the same input from it. Jobs without a spec always run locally.
type RemoteSpec struct {
	Kernel string `json:"kernel,omitempty"`
	Size   string `json:"size,omitempty"`
	MLIR   string `json:"mlir,omitempty"`
	Top    string `json:"top,omitempty"`
}

// Input is a resolved job input: the module builder, the top function and
// the cache scope every job on it shares, and the spec it was resolved
// from (nil for a builder made by hand).
type Input struct {
	Build func() *mlir.Module
	Top   string
	Scope string
	Spec  *RemoteSpec
}

// Resolve validates the spec. A kernel input defaults to the SMALL preset
// and is scoped by its size name; MLIR input needs Top, must parse, and is
// scoped by the sha256 of its text, so the scope follows content, not the
// file it came from. The returned input's Spec is s with the default size
// filled in.
func (s RemoteSpec) Resolve() (Input, error) {
	switch {
	case s.Kernel != "":
		k := polybench.Get(s.Kernel)
		if k == nil {
			return Input{}, fmt.Errorf("unknown kernel %q", s.Kernel)
		}
		if s.Size == "" {
			s.Size = "SMALL"
		}
		sz, err := k.SizeOf(s.Size)
		if err != nil {
			return Input{}, err
		}
		return Input{Build: func() *mlir.Module { return k.Build(sz) }, Top: k.Name, Scope: s.Size, Spec: &s}, nil
	case s.MLIR != "":
		if s.Top == "" {
			return Input{}, fmt.Errorf("top is required for MLIR input")
		}
		if _, err := parser.Parse(s.MLIR); err != nil {
			return Input{}, fmt.Errorf("mlir: %w", err)
		}
		text := s.MLIR
		build := func() *mlir.Module {
			m, err := parser.Parse(text)
			if err != nil {
				return nil
			}
			return m
		}
		return Input{Build: build, Top: s.Top, Scope: fmt.Sprintf("%x", sha256.Sum256([]byte(text))), Spec: &s}, nil
	}
	return Input{}, fmt.Errorf("request needs kernel or mlir")
}

// Job returns the job that evaluates directives d of the input through
// kind's flow under tgt, labelled with the top function's name.
func (in Input) Job(kind Kind, d flow.Directives, tgt hls.Target) Job {
	return Job{Label: in.Top, Kind: kind, Build: in.Build, Top: in.Top, Directives: d,
		Target: tgt, CacheScope: in.Scope, Spec: in.Spec}
}

// JobResult is one job's outcome, at the job's index in the input slice.
type JobResult struct {
	Label string
	Kind  Kind
	// Res holds the flow result (nil on error). A cached Res is shared
	// between hits and must be treated as read-only.
	Res *flow.Result
	Err error
	// CacheHit reports whether the result was served from the in-memory
	// cache; DiskHit, from the persistent result store; Remote, from a
	// compile-service daemon via Options.Remote. At most one is set.
	CacheHit bool
	DiskHit  bool
	Remote   bool
	// Elapsed is this job's wall time (near zero for cache hits).
	Elapsed time.Duration
	// Degraded marks a result the C++ fallback path produced after the
	// direct-IR flow failed; Failure carries the direct-path failure (also
	// set, without Degraded, when a job failed with a typed failure).
	Degraded bool
	Failure  *resilience.PassFailure
	// Attempts counts executions including retries (1 = first try worked;
	// 0 for cache hits and never-dispatched jobs).
	Attempts int
	// BundlePath is the quarantine repro bundle written for this job's
	// direct-path failure (Options.Quarantine).
	BundlePath string
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cache enables the content-addressed result cache, which holds at
	// most cacheEntries results.
	Cache bool
	// ContinueOnError is the default batch policy: record per-job errors
	// and keep going instead of cancelling the batch on first failure.
	ContinueOnError bool
	// Timeout is the default per-job wall-time limit (0 = none).
	Timeout time.Duration

	// Retries is the number of re-executions granted to a job whose
	// failure is transient (timeout, cancellation, or an injected fault
	// wrapping one); deterministic failures (panics, verify violations,
	// ordinary errors) never retry. Retries back off from
	// resilience.DefaultBase, doubling per attempt, with a jitter derived
	// from the job's Key and the attempt (resilience.Backoff).
	Retries int
	// Fallback degrades failed adaptor jobs to the C++ baseline flow:
	// instead of a job error, the result carries the C++ report tagged
	// Degraded with the direct-path failure attached.
	Fallback bool
	// Quarantine, when non-empty, is the directory where every direct-path
	// failure is bisected (pipeline replayed with verify-each and per-pass
	// snapshots) and written as a self-contained repro bundle that
	// `hls-adaptor -replay` re-executes.
	Quarantine string
	// IncrStore, when non-nil, is the per-unit memo store (internal/incr)
	// every job runs against: repeated design points replay their
	// unchanged pipeline prefix from stored unit snapshots instead of
	// recompiling, and a directive edit re-runs only from the first
	// affected unit. Unlike the whole-flow Cache, the store outlives the
	// engine (an incr.DiskStore, the process too) and accelerates
	// *changed* points, not just repeated ones. The per-job identity seed
	// derives from Top and CacheScope — the same input-identity contract
	// the whole-flow cache rests on, so callers whose modules are not
	// fully determined by (Top, CacheScope) must disambiguate via
	// CacheScope.
	IncrStore incr.Store

	// ResultStore, when non-nil, is the persistent whole-flow result
	// layer: successful, non-degraded adaptor/cxx results are written to
	// the digest-verified on-disk store under their engine.Key and served
	// back — across engines, processes, and restarts — before any flow
	// executes. Multiple daemons and CLIs may share one directory; a
	// corrupt record is quarantined and counted, never returned.
	ResultStore *castore.Store
	// Remote, when non-nil, is consulted for jobs carrying a Spec after
	// the in-memory cache and the persistent store both miss: the thin-
	// client path that ships a job to a compile-service daemon. Returning
	// ok=false — the server is unreachable or shedding load — falls back
	// to embedded execution; ok=true uses the returned result verbatim
	// (including a server-side evaluation error, which is the job's
	// genuine outcome and must not be retried locally). An engine with a
	// fault hook (FlowFaultHook, MiscompileHook) never consults it: the
	// daemon cannot run this process's hooks.
	Remote func(Job) (JobResult, bool)

	// FlowFaultHook, when non-nil, is every job's flow.Options.FaultHook,
	// told which job it runs in, so tests can target one kernel's run of
	// one pass. A returned error fails that unit, and so the attempt.
	FlowFaultHook func(job Job, flowName, stage, pass string) error
	// MiscompileHook, when non-nil, is consulted per job; a non-empty
	// "stage/pass" return is the job's flow.Options.InjectMiscompile,
	// which arms the semantic oracle and a deterministic IR corruption
	// inside that unit, so CI chaos suites can prove a miscompile in any
	// single job is detected, localized, and quarantined without
	// poisoning the batch.
	MiscompileHook func(Job) string
}

// BatchOptions overrides the engine's default policy for one Run call.
type BatchOptions struct {
	ContinueOnError bool
	Timeout         time.Duration
	// OnResult, when non-nil, is called by the executing worker the moment
	// job i completes (cache hits included, never-dispatched jobs
	// excluded). Callers use it for write-ahead journaling; it runs
	// concurrently across workers and must be safe for parallel calls.
	OnResult func(i int, r JobResult)
}

// Stats aggregates engine activity across all Run calls.
type Stats struct {
	Jobs        int64
	Errors      int64
	CacheHits   int64
	CacheMisses int64
	// Retries counts re-executions granted for transient failures.
	Retries int64
	// Degraded counts jobs the C++ fallback path completed after a
	// direct-IR failure.
	Degraded int64
	// Quarantined counts repro bundles written.
	Quarantined int64
	// Miscompiles counts jobs whose failure the semantic oracle typed
	// KindMiscompile — passes that changed results, not passes that crashed.
	Miscompiles int64
	// UnitHits and UnitMisses aggregate pipeline units replayed from the
	// incremental store vs executed live across all executed jobs;
	// FullReplays counts jobs whose every unit replayed (zero misses).
	UnitHits, UnitMisses, FullReplays int64
	// DiskHits counts jobs served from the persistent result store, and
	// RemoteHits jobs evaluated by a compile-service daemon — neither ran
	// a flow in this process.
	DiskHits, RemoteHits int64
	// StoreErrors sums put/get I/O failures across the persistent result
	// and incremental stores (a full or read-only disk made visible);
	// StoreCorrupt counts records that failed digest or schema
	// verification and were quarantined.
	StoreErrors, StoreCorrupt int64
	// CPU is the summed wall time of executed (non-cached) jobs; with
	// Wall from the caller's clock it shows the parallel speedup.
	CPU time.Duration
	// Phases merges per-phase timings across all executed jobs.
	Phases flow.Phases
}

// HitRate returns the cache hit fraction in [0, 1].
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// UnitHitRate returns the incremental unit replay fraction in [0, 1].
func (s Stats) UnitHitRate() float64 {
	total := s.UnitHits + s.UnitMisses
	if total == 0 {
		return 0
	}
	return float64(s.UnitHits) / float64(total)
}

// String renders the stats as a short summary block.
func (s Stats) String() string {
	out := fmt.Sprintf("jobs=%d errors=%d cache hits=%d misses=%d (rate %.0f%%) cpu=%s\n",
		s.Jobs, s.Errors, s.CacheHits, s.CacheMisses, 100*s.HitRate(), s.CPU.Round(time.Microsecond))
	if s.Retries > 0 || s.Degraded > 0 || s.Quarantined > 0 || s.Miscompiles > 0 {
		out += fmt.Sprintf("retries=%d degraded=%d quarantined=%d miscompiles=%d\n",
			s.Retries, s.Degraded, s.Quarantined, s.Miscompiles)
	}
	if s.UnitHits > 0 || s.UnitMisses > 0 {
		out += fmt.Sprintf("incr unit hits=%d misses=%d (rate %.0f%%) full replays=%d\n",
			s.UnitHits, s.UnitMisses, 100*s.UnitHitRate(), s.FullReplays)
	}
	if s.DiskHits > 0 || s.RemoteHits > 0 || s.StoreErrors > 0 || s.StoreCorrupt > 0 {
		out += fmt.Sprintf("store disk hits=%d remote hits=%d errors=%d corrupt=%d\n",
			s.DiskHits, s.RemoteHits, s.StoreErrors, s.StoreCorrupt)
	}
	if len(s.Phases) > 0 {
		out += s.Phases.String()
	}
	return out
}

// Engine is a reusable evaluator; its cache and stats persist across Run
// calls, so batches issued through one engine share results.
type Engine struct {
	opts Options
	// cache holds completed results (reports, violations, final LLVM
	// module) shared between hits, so consumers must treat a cached payload
	// as read-only. Two workers can race on one key (both missed before
	// either finished); the first result added wins, so repeated hits stay
	// identical.
	cache *incr.Cache[JobResult]

	mu    sync.Mutex
	stats Stats
}

// New builds an engine. The zero Options value gives a GOMAXPROCS-wide
// pool with no cache, no timeout, no retries, and fail-fast cancellation.
func New(opts Options) *Engine {
	e := &Engine{opts: opts}
	if opts.Cache {
		e.cache = incr.NewCache[JobResult](cacheEntries)
	}
	return e
}

// Workers returns the effective pool size.
func (e *Engine) Workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the engine's counters, folding in the
// health counters of whatever persistent stores the engine drives so a
// failing disk or a corruption storm shows up where operators look.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	s.Phases = s.Phases.Clone()
	e.mu.Unlock()
	var c castore.Counters
	if e.opts.ResultStore != nil {
		c = c.Add(e.opts.ResultStore.Counters())
	}
	if cs, ok := e.opts.IncrStore.(counterSource); ok {
		c = c.Add(cs.Counters())
	}
	s.StoreErrors = c.PutErrors + c.GetErrors
	s.StoreCorrupt = c.Corrupt
	return s
}

// Run evaluates the batch under the engine's default policy.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	return e.RunBatch(ctx, jobs, BatchOptions{
		ContinueOnError: e.opts.ContinueOnError,
		Timeout:         e.opts.Timeout,
	})
}

// RunBatch evaluates every job on the worker pool and returns results in
// job order. With ContinueOnError false, the first failure (by job index)
// cancels jobs that have not started and is returned as the batch error;
// with it true, the error is nil and callers inspect per-job Err fields.
// An externally cancelled ctx is returned as the batch error either way.
func (e *Engine) RunBatch(ctx context.Context, jobs []Job, opts BatchOptions) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// batch names this batch in the fresh-module contract's module claims.
	batch := batchSeq.Add(1)

	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				results[i] = e.runOne(jobs[i], opts.Timeout, batch)
				if opts.OnResult != nil {
					opts.OnResult(i, results[i])
				}
				if results[i].Err != nil && !opts.ContinueOnError {
					cancel()
				}
			}
		}()
	}
	// Cancellation gates the feeder, never a worker: every job handed out
	// runs to completion, and jobs are handed out in index order. So when
	// job f is the first failure, every job with index < f was dispatched
	// before f and records its genuine outcome — which makes the "first
	// error" scan below return exactly what a serial loop would have.
	sent := len(jobs)
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			sent = i
		}
		if sent != len(jobs) {
			break
		}
	}
	close(feed)
	wg.Wait()
	for i := sent; i < len(jobs); i++ {
		results[i] = JobResult{Label: jobs[i].Label, Kind: jobs[i].Kind, Err: context.Canceled}
	}

	e.mu.Lock()
	for i := range results {
		e.stats.Jobs++
		if results[i].Err != nil {
			e.stats.Errors++
		}
		switch {
		case results[i].CacheHit:
			e.stats.CacheHits++
		case results[i].DiskHit:
			e.stats.DiskHits++
		case results[i].Remote:
			e.stats.RemoteHits++
		case results[i].Err == nil && (e.cache != nil || e.opts.ResultStore != nil):
			e.stats.CacheMisses++
		}
		if !results[i].CacheHit && !results[i].DiskHit && !results[i].Remote && results[i].Err == nil {
			e.stats.CPU += results[i].Elapsed
			if r := results[i].Res; r != nil {
				e.stats.Phases = e.stats.Phases.Merge(r.Phases)
				e.stats.UnitHits += int64(r.UnitHits)
				e.stats.UnitMisses += int64(r.UnitMisses)
				if r.UnitHits > 0 && r.UnitMisses == 0 {
					e.stats.FullReplays++
				}
			}
		}
		if results[i].Attempts > 1 {
			e.stats.Retries += int64(results[i].Attempts - 1)
		}
		if results[i].Degraded {
			e.stats.Degraded++
		}
		if results[i].BundlePath != "" {
			e.stats.Quarantined++
		}
		if f := results[i].Failure; f != nil && f.Kind == resilience.KindMiscompile {
			e.stats.Miscompiles++
		}
	}
	e.mu.Unlock()

	if err := parent.Err(); err != nil {
		return results, err
	}
	if !opts.ContinueOnError {
		for i := range results {
			if err := results[i].Err; err != nil && err != context.Canceled {
				return results, fmt.Errorf("%s: %w", results[i].Label, err)
			}
		}
	}
	return results, nil
}

// runOne serves a single job through the lookup chain — in-memory cache,
// persistent result store, remote daemon, local execution — and feeds
// each layer's result back into the layers above it. Degraded results are
// never cached or persisted: the fallback report is a stand-in for a
// failed run, and storing it would mask the direct path recovering on a
// later batch.
func (e *Engine) runOne(job Job, timeout time.Duration, batch uint64) JobResult {
	useStore := e.opts.ResultStore != nil
	var key string
	if e.cache != nil || useStore {
		key = Key(job)
	}
	if e.cache != nil {
		if hit, ok := e.cache.Get(key); ok {
			r := hit
			r.Label = job.Label
			r.CacheHit = true
			r.DiskHit = false
			r.Remote = false
			r.Elapsed = 0
			r.Attempts = 0
			return r
		}
	}
	if useStore {
		if r, ok := e.loadStored(key, job); ok {
			if e.cache != nil {
				e.cache.Add(key, r)
			}
			return r
		}
	}
	if e.opts.Remote != nil && job.Spec != nil && !e.faultHooked() {
		if r, ok := e.opts.Remote(job); ok {
			r.Label = job.Label
			r.Kind = job.Kind
			r.Remote = true
			r.CacheHit = false
			r.DiskHit = false
			if e.cache != nil && r.Err == nil && !r.Degraded {
				e.cache.Add(key, r)
			}
			return r
		}
	}
	res := e.execute(job, timeout, batch)
	if res.Err == nil && !res.Degraded {
		if e.cache != nil {
			e.cache.Add(key, res)
		}
		if useStore && storable(res) {
			e.saveStored(key, res)
		}
	}
	return res
}

// faultHooked reports whether a fault hook is set: its jobs must run in
// this process, where the hook can fire.
func (e *Engine) faultHooked() bool {
	return e.opts.FlowFaultHook != nil || e.opts.MiscompileHook != nil
}

// execute runs a job's attempt loop: transient failures (timeouts,
// cancellations) are retried up to Options.Retries with the job's jittered
// backoff; deterministic failures (panics, verify violations, plain
// errors) fail immediately — re-running identical input through
// deterministic code cannot help. After the final attempt, a surviving
// direct-path failure is bisected into a quarantine repro bundle when
// Options.Quarantine is set.
func (e *Engine) execute(job Job, timeout time.Duration, batch uint64) JobResult {
	var res JobResult
	for attempt := 1; ; attempt++ {
		res = e.attempt(job, timeout, batch)
		res.Attempts = attempt
		if res.Err == nil || attempt > e.opts.Retries || !resilience.Transient(res.Err) {
			break
		}
		time.Sleep(resilience.Backoff(Key(job), attempt))
	}
	e.quarantine(job, &res)
	return res
}

// quarantine bisects a deterministic direct-path failure — a failed job,
// or a degraded one whose failure rode along — and writes the repro
// bundle, recording its path on the result.
func (e *Engine) quarantine(job Job, res *JobResult) {
	if e.opts.Quarantine == "" {
		return
	}
	var cause error
	switch {
	case res.Err != nil && !resilience.Transient(res.Err):
		cause = res.Err
	case res.Degraded && res.Failure != nil:
		cause = res.Failure
	default:
		return
	}
	bundle := flow.Bisect(job.Build, string(job.Kind), job.Label, job.Top,
		job.Directives, job.Target, e.flowOptions(job), cause)
	bundle.Scope = job.CacheScope
	if path, err := resilience.WriteBundle(e.opts.Quarantine, bundle); err == nil {
		res.BundlePath = path
	}
}

// attempt runs one bounded execution of the flow. The per-attempt context
// derives from context.Background(), not the batch context: the batch
// context gates the feeder (determinism contract), while this one exists
// to reclaim the job's goroutine — on timeout the flow observes
// cancellation at its next pass boundary and unwinds instead of leaking.
func (e *Engine) attempt(job Job, timeout time.Duration, batch uint64) JobResult {
	if timeout <= 0 {
		return e.runFlow(context.Background(), job, batch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done := make(chan JobResult, 1)
	go func() { done <- e.runFlow(ctx, job, batch) }()
	select {
	case r := <-done:
		return r
	case <-ctx.Done():
		// The worker moves on; the flow goroutine sees the cancelled
		// context at its next pass boundary and returns. Its result is
		// discarded.
		return JobResult{Label: job.Label, Kind: job.Kind, Elapsed: timeout,
			Err: fmt.Errorf("job %q exceeded timeout %s: %w", job.Label, timeout, context.DeadlineExceeded)}
	}
}

// flowOptions assembles the job's flow options: the oracle follows the
// job, FlowFaultHook specializes the pass-level fault hook to this job, and
// MiscompileHook names the job's injected miscompile.
func (e *Engine) flowOptions(job Job) flow.Options {
	fopts := flow.Options{VerifySemantics: job.VerifySemantics}
	if e.opts.IncrStore != nil {
		fopts.IncrStore = e.opts.IncrStore
		// The seed spares every job its pristine module print; it is sound
		// exactly when (Top, CacheScope) determines the built module — the
		// identity contract Job.CacheScope documents for the result cache.
		fopts.IncrSeed = fmt.Sprintf("top=%s|scope=%s", job.Top, job.CacheScope)
	}
	if e.opts.FlowFaultHook != nil {
		hook := e.opts.FlowFaultHook
		fopts.FaultHook = func(flowName, stage, pass string) error { return hook(job, flowName, stage, pass) }
	}
	if e.opts.MiscompileHook != nil {
		fopts.InjectMiscompile = e.opts.MiscompileHook(job)
	}
	return fopts
}

// batchSeq numbers batches for the fresh-module contract, and claimMu
// serializes module claims across concurrent batches.
var (
	batchSeq atomic.Uint64
	claimMu  sync.Mutex
)

// claim records on m that job label of batch built it, or returns the
// error naming the earlier job of the batch that built the same module.
// The record lives on the module, not in the batch: no result references
// MLIR, so a finished job's module is garbage, and the check must not keep
// every module of a batch alive until the batch ends.
func claim(m *mlir.Module, batch uint64, label string) error {
	claimMu.Lock()
	prev, fresh := m.Claim(batch, label)
	claimMu.Unlock()
	if !fresh {
		return fmt.Errorf("job %q: Build returned the same *mlir.Module as job %q; flows mutate their input, so Build must construct a fresh module per call (see internal/mlir/clone.go)", label, prev)
	}
	return nil
}

// runFlow builds the module, enforces the fresh-module contract, and
// dispatches to the right flow under this attempt's context.
func (e *Engine) runFlow(ctx context.Context, job Job, batch uint64) (out JobResult) {
	out = JobResult{Label: job.Label, Kind: job.Kind}
	start := time.Now()
	defer func() { out.Elapsed = time.Since(start) }()

	if job.Build == nil {
		out.Err = fmt.Errorf("job %q: nil Build", job.Label)
		return out
	}
	m := job.Build()
	if m == nil {
		out.Err = fmt.Errorf("job %q: Build returned nil module", job.Label)
		return out
	}
	if err := claim(m, batch, job.Label); err != nil {
		out.Err = err
		return out
	}

	fopts := e.flowOptions(job)
	fopts.Ctx = ctx
	if e.opts.Fallback && job.Kind == KindAdaptor {
		fopts.Fallback = func() *mlir.Module {
			fm := job.Build()
			if fm == nil {
				return nil
			}
			if err := claim(fm, batch, job.Label+" (fallback)"); err != nil {
				return nil
			}
			return fm
		}
	}

	switch job.Kind {
	case KindAdaptor:
		out.Res, out.Err = flow.AdaptorFlowWith(m, job.Top, job.Directives, job.Target, fopts)
	case KindCxx:
		out.Res, out.Err = flow.CxxFlowWith(m, job.Top, job.Directives, job.Target, fopts)
	default:
		out.Err = fmt.Errorf("job %q: unknown kind %q", job.Label, job.Kind)
	}
	if out.Res != nil {
		out.Degraded = out.Res.Degraded
		out.Failure = out.Res.Failure
	}
	if out.Err != nil {
		if pf, ok := resilience.AsPassFailure(out.Err); ok {
			out.Failure = pf
		}
	}
	return out
}
