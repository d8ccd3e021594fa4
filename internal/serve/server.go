package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/resilience"
)

// Config tunes a Server. The zero value is usable for tests: an in-memory
// engine with no persistence and default admission bounds.
type Config struct {
	// StoreDir is the shared persistent layer: whole-flow results land in
	// StoreDir/results, incremental unit records in StoreDir/units, and
	// the pending-jobs journal in StoreDir/pending.jsonl. Empty disables
	// persistence (results live only in the in-memory cache).
	StoreDir string
	// Workers bounds each evaluation batch's engine pool (0 = GOMAXPROCS).
	Workers int
	// Slots bounds concurrently admitted requests (default 2).
	Slots int
	// QueueDepth bounds each client's wait queue (default 8); a request
	// beyond it is shed with 429.
	QueueDepth int
	// DefaultDeadline bounds a request that carries none (default 2m).
	DefaultDeadline time.Duration
	// BreakerThreshold is the consecutive pass-failure count that opens a
	// flow's circuit breaker (default 5; < 0 disables).
	BreakerThreshold int
	// BreakerCooldown is the open interval before a probe (default 30s).
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Server is the compile-service daemon: one shared evaluation engine
// behind admission control, request deduplication, per-flow circuit
// breakers, and a persistent digest-verified result store.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	store   *castore.Store
	adm     *Admission
	brk     *Breaker
	sf      group
	pending *resilience.Journal

	mux      *http.ServeMux
	inflight sync.WaitGroup
	draining atomic.Bool

	requests    atomic.Int64
	shed        atomic.Int64
	deduped     atomic.Int64
	breakerOpen atomic.Int64
	recovered   atomic.Int64
}

// New builds a server, opening (or creating) the shared store and
// re-admitting any journaled jobs a previous process left unfinished.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		adm: NewAdmission(cfg.Slots, cfg.QueueDepth),
		brk: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	eopts := engine.Options{
		Workers:         cfg.Workers,
		Cache:           true,
		ContinueOnError: true,
	}
	if cfg.StoreDir != "" {
		store, err := castore.Open(cfg.StoreDir + "/results")
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		units, err := incr.OpenDiskStore(cfg.StoreDir + "/units")
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		pending, err := resilience.OpenJournal(cfg.StoreDir + "/pending.jsonl")
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.store = store
		s.pending = pending
		eopts.ResultStore = store
		eopts.IncrStore = units
	}
	s.eng = engine.New(eopts)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.recoverPending()
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying engine (tests and embedded use).
func (s *Server) Engine() *engine.Engine { return s.eng }

// pendingEntry is the write-ahead record of one admitted evaluation: the
// request (so a restarted daemon can re-run it) and whether it finished.
type pendingEntry struct {
	Req  EvalRequest `json:"req"`
	Done bool        `json:"done,omitempty"`
}

// recoverPending re-admits journaled jobs that never completed — queued
// or in-flight work a crash or drain left behind. They run in the
// background at startup; their results land in the shared store, so the
// clients that originally submitted them get store hits on retry.
func (s *Server) recoverPending() {
	if s.pending == nil {
		return
	}
	type recovery struct {
		key string
		e   pendingEntry
	}
	var todo []recovery
	for _, key := range s.pending.Keys() {
		var e pendingEntry
		if ok, err := s.pending.Get(key, &e); ok && err == nil && !e.Done {
			todo = append(todo, recovery{key, e})
		}
	}
	if len(todo) == 0 {
		return
	}
	s.recovered.Add(int64(len(todo)))
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		for _, r := range todo {
			if s.draining.Load() {
				return
			}
			job, err := evalJob(r.e.Req)
			if err != nil {
				// Unbuildable request (kernel renamed, garbage entry): mark
				// done so it is not re-admitted forever.
				_ = s.pending.Put(r.key, pendingEntry{Req: r.e.Req, Done: true})
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
			if _, _, err := s.runJob(ctx, r.e.Req, job); err == nil {
				// runJob marked engine.Key(job) done; the original entry may
				// have been journaled under a different key — mark it too.
				_ = s.pending.Put(r.key, pendingEntry{Req: r.e.Req, Done: true})
			}
			cancel()
		}
	}()
}

// evalJob assembles the engine job for one eval request, its input
// resolved by engine.RemoteSpec and the spec stamped on the job.
func evalJob(req EvalRequest) (engine.Job, error) {
	in, err := engine.RemoteSpec{Kernel: req.Kernel, Size: req.Size, MLIR: req.MLIR, Top: req.Top}.Resolve()
	if err != nil {
		return engine.Job{}, err
	}
	kind := engine.KindAdaptor
	switch req.Kind {
	case "", "adaptor":
	case "cxx":
		kind = engine.KindCxx
	default:
		return engine.Job{}, fmt.Errorf("unknown kind %q (want adaptor or cxx)", req.Kind)
	}
	tgt, err := req.Target.Target()
	if err != nil {
		return engine.Job{}, err
	}
	job := in.Job(kind, req.Directives.Flow(), tgt)
	job.VerifySemantics = req.Verify
	return job, nil
}

// deadline resolves a request's evaluation budget.
func (s *Server) deadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// runJob evaluates req's job on the shared engine, deduplicating
// identical in-flight requests and feeding the circuit breaker. The
// pending journal records req itself, as received, so a restarted daemon
// re-admits exactly what the client sent. The returned shared flag
// reports dedup; the error is an admission/breaker condition, never an
// evaluation outcome (that travels inside the JobResult).
func (s *Server) runJob(ctx context.Context, req EvalRequest, job engine.Job) (engine.JobResult, bool, error) {
	if err := s.brk.Allow(string(job.Kind)); err != nil {
		s.breakerOpen.Add(1)
		return engine.JobResult{}, false, err
	}
	release, err := s.adm.Acquire(ctx, req.Client)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.shed.Add(1)
		}
		return engine.JobResult{}, false, err
	}
	defer release()
	s.requests.Add(1)

	key := engine.Key(job)
	if s.pending != nil {
		_ = s.pending.Put(key, pendingEntry{Req: req, Done: false})
	}
	v, _, shared := s.sf.Do(key, func() (any, error) {
		timeout := s.cfg.DefaultDeadline
		if dl, ok := ctx.Deadline(); ok {
			timeout = time.Until(dl)
		}
		rs, _ := s.eng.RunBatch(ctx, []engine.Job{job}, engine.BatchOptions{
			ContinueOnError: true,
			Timeout:         timeout,
		})
		r := rs[0]
		var pf *resilience.PassFailure
		if r.Err != nil {
			pf = r.Failure
		}
		s.brk.Record(string(job.Kind), pf)
		return r, nil
	})
	if shared {
		s.deduped.Add(1)
	}
	r := v.(engine.JobResult)
	if s.pending != nil {
		_ = s.pending.Put(key, pendingEntry{Req: req, Done: true})
	}
	return r, shared, nil
}

// source maps a job result's provenance flags to the wire Source field.
func source(r engine.JobResult, shared bool) string {
	switch {
	case shared:
		return "dedup"
	case r.CacheHit:
		return "cache"
	case r.DiskHit:
		return "store"
	case r.Remote:
		return "remote"
	default:
		return "computed"
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeAdmissionError maps admission/breaker conditions to HTTP status
// codes with Retry-After.
func (s *Server) writeAdmissionError(w http.ResponseWriter, client string, kind string, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(1+s.adm.QueueDepth(client)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"err": err.Error()})
	case errors.Is(err, ErrBreakerOpen):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.brk.RetryAfter(kind).Seconds())))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"err": err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"err": err.Error()})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"err": err.Error()})
	}
}

// maxRequestBytes bounds a request body. The largest requests the repo's
// clients send carry a printed module: about 2.4 KB for the largest
// polybench kernel at SMALL and 4.9 KB for the largest of 2,000 kgen
// kernels. 1 MiB leaves a wide margin for hand-written MLIR.
const maxRequestBytes = 1 << 20

// decodeRequest decodes the JSON body of r into v, reading at most
// maxRequestBytes of it. On failure it answers 413 for an oversized body or
// 400 for malformed JSON, and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"err": fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{"err": "bad json: " + err.Error()})
	return false
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAdmissionError(w, "", "", ErrDraining)
		return
	}
	var req EvalRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	job, err := evalJob(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Done()
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMs))
	defer cancel()

	res, shared, err := s.runJob(ctx, req, job)
	if err != nil {
		s.writeAdmissionError(w, req.Client, string(job.Kind), err)
		return
	}
	resp := EvalResponse{
		Label:  res.Label,
		Kind:   string(job.Kind),
		Source: source(res, shared),
	}
	if res.Err != nil {
		resp.Err = res.Err.Error()
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	resp.Degraded = res.Degraded
	if res.Res != nil {
		resp.Report = res.Res.Report
		resp.Adaptor = res.Res.Adaptor
		resp.CSource = res.Res.CSource
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAdmissionError(w, "", "", ErrDraining)
		return
	}
	var req SweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	in, err := engine.RemoteSpec{Kernel: req.Kernel, Size: req.Size, MLIR: req.MLIR, Top: req.Top}.Resolve()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
		return
	}
	tgt, err := req.Target.Target()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
		return
	}
	if err := s.brk.Allow(string(engine.KindAdaptor)); err != nil {
		s.breakerOpen.Add(1)
		s.writeAdmissionError(w, req.Client, string(engine.KindAdaptor), err)
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Done()
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMs))
	defer cancel()

	// A sweep holds one admission slot for its whole run: the engine pool
	// underneath parallelizes the points, and fairness stays per-client at
	// request granularity.
	release, err := s.adm.Acquire(ctx, req.Client)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.shed.Add(1)
		}
		s.writeAdmissionError(w, req.Client, string(engine.KindAdaptor), err)
		return
	}
	defer release()
	s.requests.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	emit := func(ev SweepEvent) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = json.NewEncoder(w).Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	sw := dse.NewSweep(in, tgt, dse.Options{})
	rs, _ := s.eng.RunBatch(ctx, sw.Jobs, engine.BatchOptions{
		ContinueOnError: true,
		OnResult: func(i int, r engine.JobResult) {
			var pf *resilience.PassFailure
			if r.Err != nil {
				pf = r.Failure
			}
			s.brk.Record(string(engine.KindAdaptor), pf)
			if r.Err != nil {
				emit(SweepEvent{Type: "error", Label: r.Label, Err: r.Err.Error()})
				return
			}
			emit(SweepEvent{Type: "point", Point: &SweepPoint{
				Label:   r.Label,
				Latency: r.Res.Report.LatencyCycles,
				Area:    dse.Area(r.Res.Report),
				Report:  r.Res.Report,
				Source:  source(r, false),
			}})
		},
	})

	res := sw.Collect(rs)
	done := SweepEvent{Type: "done", Errors: len(res.Errors)}
	for _, p := range res.Pareto {
		done.Frontier = append(done.Frontier, SweepPoint{
			Label: p.Label, Latency: p.Latency(), Area: p.Area, Report: p.Report,
		})
	}
	emit(done)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the serving counters.
func (s *Server) Stats() StatsResponse {
	resp := StatsResponse{
		Engine:      s.eng.Stats(),
		Requests:    s.requests.Load(),
		Shed:        s.shed.Load(),
		Deduped:     s.deduped.Load(),
		BreakerOpen: s.breakerOpen.Load(),
		Recovered:   s.recovered.Load(),
		Draining:    s.draining.Load(),
	}
	if s.store != nil {
		resp.StoreLen = s.store.Len()
	}
	return resp
}

// Drain gracefully stops the daemon: readiness flips to 503, queued
// waiters are shed, in-flight evaluations finish (bounded by ctx), and
// the pending journal closes. Jobs that were journaled but never finished
// stay marked pending; the next start re-admits them.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.Drain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if s.pending != nil {
		_ = s.pending.Close()
	}
	return err
}
