package serve

import (
	"context"
	"crypto/sha256"
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
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
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
			in, err := buildInput(r.e.Req.Kernel, r.e.Req.Size, r.e.Req.MLIR, r.e.Req.Top)
			if err != nil {
				// Unbuildable request (kernel renamed, garbage entry): mark
				// done so it is not re-admitted forever.
				_ = s.pending.Put(r.key, pendingEntry{Req: r.e.Req, Done: true})
				continue
			}
			job, err := evalJob(in, r.e.Req)
			if err != nil {
				_ = s.pending.Put(r.key, pendingEntry{Req: r.e.Req, Done: true})
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
			if _, _, err := s.runJob(ctx, r.e.Req.Client, job); err == nil {
				// runJob marked engine.Key(job) done; the original entry may
				// have been journaled under a different key — mark it too.
				_ = s.pending.Put(r.key, pendingEntry{Req: r.e.Req, Done: true})
			}
			cancel()
		}
	}()
}

// input is a validated evaluation input: a module builder plus the
// identity fields every job derives from it.
type input struct {
	build func() *mlir.Module
	top   string
	scope string
	name  string
}

// buildInput resolves the kernel+size / MLIR+top pair shared by eval and
// sweep requests.
func buildInput(kernel, size, mlirText, top string) (*input, error) {
	switch {
	case kernel != "":
		k := polybench.Get(kernel)
		if k == nil {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		if size == "" {
			size = "SMALL"
		}
		sz, err := k.SizeOf(size)
		if err != nil {
			return nil, err
		}
		return &input{
			build: func() *mlir.Module { return k.Build(sz) },
			top:   k.Name, scope: size, name: k.Name,
		}, nil
	case mlirText != "":
		if top == "" {
			return nil, fmt.Errorf("top is required for MLIR input")
		}
		if _, err := parser.Parse(mlirText); err != nil {
			return nil, fmt.Errorf("mlir: %w", err)
		}
		return &input{
			build: func() *mlir.Module {
				m, err := parser.Parse(mlirText)
				if err != nil {
					return nil
				}
				return m
			},
			top: top, scope: fmt.Sprintf("%x", sha256.Sum256([]byte(mlirText))), name: top,
		}, nil
	default:
		return nil, fmt.Errorf("request needs kernel or mlir")
	}
}

// evalJob assembles the engine job for one eval request.
func evalJob(in *input, req EvalRequest) (engine.Job, error) {
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
	return engine.Job{
		Label:           in.name,
		Kind:            kind,
		Build:           in.build,
		Top:             in.top,
		Directives:      req.Directives.Flow(),
		Target:          tgt,
		CacheScope:      in.scope,
		VerifySemantics: req.Verify,
	}, nil
}

// deadline resolves a request's evaluation budget.
func (s *Server) deadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// runJob evaluates one job on the shared engine, deduplicating identical
// in-flight requests and feeding the circuit breaker. The returned shared
// flag reports dedup; the error is an admission/breaker condition, never
// an evaluation outcome (that travels inside the JobResult).
func (s *Server) runJob(ctx context.Context, client string, job engine.Job) (engine.JobResult, bool, error) {
	if err := s.brk.Allow(string(job.Kind)); err != nil {
		s.breakerOpen.Add(1)
		return engine.JobResult{}, false, err
	}
	release, err := s.adm.Acquire(ctx, client)
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
		_ = s.pending.Put(key, pendingEntry{Req: requestOf(job), Done: false})
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
		_ = s.pending.Put(key, pendingEntry{Req: requestOf(job), Done: true})
	}
	return r, shared, nil
}

// requestOf reconstructs the journalable request for a job. Only jobs
// built from requests reach the journal, so every field round-trips.
func requestOf(job engine.Job) EvalRequest {
	req := EvalRequest{
		Kind:       string(job.Kind),
		Directives: DirectivesFrom(job.Directives),
		Target:     TargetFrom(job.Target),
		Verify:     job.VerifySemantics,
	}
	if job.Spec != nil {
		req.Kernel, req.Size, req.MLIR = job.Spec.Kernel, job.Spec.Size, job.Spec.MLIR
		if req.MLIR != "" {
			req.Top = job.Top
		}
	} else if polybench.Get(job.Top) != nil {
		req.Kernel, req.Size = job.Top, job.CacheScope
	}
	return req
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

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAdmissionError(w, "", "", ErrDraining)
		return
	}
	var req EvalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": "bad json: " + err.Error()})
		return
	}
	in, err := buildInput(req.Kernel, req.Size, req.MLIR, req.Top)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
		return
	}
	job, err := evalJob(in, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
		return
	}
	// Preserve the wire identity so the pending journal can re-admit the
	// job after a restart.
	job.Spec = &engine.RemoteSpec{Kernel: req.Kernel, Size: req.Size, MLIR: req.MLIR}

	s.inflight.Add(1)
	defer s.inflight.Done()
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMs))
	defer cancel()

	res, shared, err := s.runJob(ctx, req.Client, job)
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"err": "bad json: " + err.Error()})
		return
	}
	in, err := buildInput(req.Kernel, req.Size, req.MLIR, req.Top)
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

	space := dse.Space()
	jobs := make([]engine.Job, len(space))
	for i, cfg := range space {
		jobs[i] = engine.Job{
			Label:      cfg.Label,
			Kind:       engine.KindAdaptor,
			Build:      in.build,
			Top:        in.top,
			Directives: cfg.D,
			Target:     tgt,
			CacheScope: in.scope,
		}
	}
	rs, _ := s.eng.RunBatch(ctx, jobs, engine.BatchOptions{
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

	var points []dse.Point
	nerr := 0
	for i, r := range rs {
		if r.Err != nil {
			nerr++
			continue
		}
		points = append(points, dse.Point{
			Label: r.Label, D: space[i].D, Report: r.Res.Report,
			Area: dse.Area(r.Res.Report), Degraded: r.Degraded,
		})
	}
	frontier := dse.Frontier(points)
	done := SweepEvent{Type: "done", Errors: nerr}
	for _, p := range frontier {
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
