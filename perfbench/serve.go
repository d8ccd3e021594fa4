package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/polybench"
	"repro/internal/serve"
)

// The serve session (compile-pairs' traced mode) measures an in-process
// hls-serve under the traffic the repository's thin clients send: hls-dse
// -server evaluates one kernel's whole dse.Space() at one target clock, a
// request per configuration in space order, through serve.Client; flowbench
// -server sends a kernel's directive set under both flows. A session client
// therefore runs sweeps: one kernel under one flow, every dse.Space()
// configuration in order, at MINI and the default target, each request sent
// after the previous reply arrived.
//
// Which sweeps run is an assumption, not measured traffic: the store starts
// with a seeded half of all (kernel, flow) sweeps, as if an earlier daemon
// had served them, and each client then works through every sweep once in
// its own seeded order.
const serveSize = "MINI"

var serveKinds = []engine.Kind{engine.KindAdaptor, engine.KindCxx}

// sweep is one kernel under one flow.
type sweep struct {
	kernel, kind int
}

// servePoint is one design point a request asks for.
type servePoint struct {
	kernel, config, kind int
}

// serveGen holds the seeded sweep orders of a session.
type serveGen struct {
	kernels []*polybench.Kernel
	sizes   []polybench.Size
	space   []dse.Config
	stored  []sweep   // sweeps set-up pre-populates
	orders  [][]sweep // each client's sweeps, in order
}

func newServeGen(seed uint64, clients int) (*serveGen, error) {
	h := fnv.New64a()
	h.Write([]byte("serve"))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	g := &serveGen{kernels: polybench.All(), space: dse.Space()}
	for _, k := range g.kernels {
		sz, err := k.SizeOf(serveSize)
		if err != nil {
			return nil, err
		}
		g.sizes = append(g.sizes, sz)
	}
	var all []sweep
	for k := range g.kernels {
		for kind := range serveKinds {
			all = append(all, sweep{k, kind})
		}
	}
	shuffle := func() []sweep {
		out := make([]sweep, len(all))
		for i, j := range rng.Perm(len(all)) {
			out[i] = all[j]
		}
		return out
	}
	g.stored = shuffle()[:len(all)/2]
	for c := 0; c < clients; c++ {
		g.orders = append(g.orders, shuffle())
	}
	return g, nil
}

// points expands sweeps into their requests, in order.
func (g *serveGen) points(sweeps []sweep) []servePoint {
	var out []servePoint
	for _, s := range sweeps {
		for c := range g.space {
			out = append(out, servePoint{kernel: s.kernel, config: c, kind: s.kind})
		}
	}
	return out
}

// requests returns client c's request sequence: the same seed and client
// give the same sequence.
func (g *serveGen) requests(c int) []servePoint { return g.points(g.orders[c]) }

// request builds the request serve.Client.Remote sends for the point's
// engine job.
func (g *serveGen) request(p servePoint) serve.EvalRequest {
	k := g.kernels[p.kernel]
	return serve.EvalRequest{
		Kernel:     k.Name,
		Size:       serveSize,
		Top:        k.Name,
		Kind:       string(serveKinds[p.kind]),
		Directives: serve.DirectivesFrom(g.space[p.config].D),
		Target:     serve.TargetFrom(hls.DefaultTarget()),
	}
}

func (g *serveGen) label(p servePoint) string {
	return fmt.Sprintf("%s/%s/%s", g.kernels[p.kernel].Name, g.space[p.config].Label, serveKinds[p.kind])
}

// serveSetup is a running server over a pre-populated store.
type serveSetup struct {
	dir string
	srv *serve.Server
	hs  *httptest.Server
}

// eval sends one request through the repository's thin client and returns
// the report's JSON and the result source.
func eval(c *serve.Client, req serve.EvalRequest) (report, source string, err error) {
	resp, err := c.Eval(req)
	if err != nil {
		return "", "", err
	}
	if resp.Err != "" {
		return "", resp.Source, fmt.Errorf("evaluation failed: %s", resp.Err)
	}
	data, err := json.Marshal(resp.Report)
	return string(data), resp.Source, err
}

// setupServe pre-populates a fresh store with the stored sweeps through a
// first server instance, closes it, and starts the server the session
// measures on the same store.
func setupServe(cfg config, g *serveGen) (*serveSetup, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("serve-store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	first, err := serve.New(serve.Config{StoreDir: dir, Workers: cfg.workers})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(first.Handler())
	var wg sync.WaitGroup
	errs := make([]error, cfg.workers)
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := serve.NewClient(hs.URL, fmt.Sprintf("warm%d", c))
			for i := c; i < len(g.stored); i += cfg.workers {
				for _, p := range g.points(g.stored[i : i+1]) {
					if _, _, err := eval(client, g.request(p)); err != nil {
						errs[c] = fmt.Errorf("pre-populate %s: %w", g.label(p), err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hs.Close()
	if err := first.Drain(context.Background()); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{StoreDir: dir, Workers: cfg.workers})
	if err != nil {
		return nil, err
	}
	return &serveSetup{dir: dir, srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

// close stops the server and deletes its store.
func (s *serveSetup) close() error {
	s.hs.Close()
	if err := s.srv.Drain(context.Background()); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

// serveRun is what one closed-loop session measured.
type serveRun struct {
	failures
	ops      int
	bySource map[string][]float64 // latency by result source, ms
	first    map[servePoint]string
	order    []servePoint // distinct points in first-served order
	stats    serve.StatsResponse
}

// closedLoop runs one client per worker against the server until each has
// sent its whole request sequence or dur has passed. Each client sends its
// next request only after the previous reply arrived. Every request gets a
// span named by its result source.
func closedLoop(cfg config, g *serveGen, s *serveSetup, dur time.Duration, tr *tracer) *serveRun {
	run := &serveRun{bySource: map[string][]float64{}, first: map[servePoint]string{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := serve.NewClient(s.hs.URL, fmt.Sprintf("client%d", c))
			for n, p := range g.requests(c) {
				if !time.Now().Before(deadline) {
					return
				}
				span := tr.begin("serve.request", -1, c<<32|n, c) // request id: client, then sequence
				start := time.Now()
				report, source, err := eval(client, g.request(p))
				lat := ms(time.Since(start))
				tr.endAs(span, "serve."+source)
				mu.Lock()
				run.ops++
				switch prev, seen := run.first[p]; {
				case err != nil:
					run.fail(fmt.Errorf("%s: %w", g.label(p), err))
				case !seen:
					run.first[p] = report
					run.order = append(run.order, p)
				case prev != report:
					run.fail(fmt.Errorf("%s: report differs from the point's first reply", g.label(p)))
				}
				if err == nil {
					run.bySource[source] = append(run.bySource[source], lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.stats = s.srv.Stats()
	return run
}

// checkServed compares every point's first reply (and through closedLoop,
// every later reply) with an embedded evaluation of the same point: the
// flow run in process, outside the server, engine, caches and stores. The
// points are evaluated on cfg.workers goroutines.
func checkServed(cfg config, g *serveGen, run *serveRun) {
	errs := make([]error, len(run.order))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				errs[i] = checkPoint(g, run.order[i], run.first[run.order[i]])
			}
		}()
	}
	for i := range run.order {
		feed <- i
	}
	close(feed)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			run.fail(err)
		}
	}
}

func checkPoint(g *serveGen, p servePoint, served string) error {
	k, sz := g.kernels[p.kernel], g.sizes[p.kernel]
	d, tgt := g.space[p.config].D, hls.DefaultTarget()
	var res *flow.Result
	var err error
	if serveKinds[p.kind] == engine.KindCxx {
		res, err = flow.CxxFlow(k.Build(sz), k.Name, d, tgt)
	} else {
		res, err = flow.AdaptorFlow(k.Build(sz), k.Name, d, tgt)
	}
	if err != nil {
		return fmt.Errorf("embedded %s: %w", g.label(p), err)
	}
	data, err := json.Marshal(res.Report)
	if err != nil {
		return err
	}
	if string(data) != served {
		return fmt.Errorf("%s: served report differs from the embedded flow's", g.label(p))
	}
	return nil
}

// serveSession is the serve session of the traced run: a server over a
// pre-populated store under the closed loop for at most dur, every reply
// checked, and the serve, incr and castore per-layer metrics filled in.
func serveSession(cfg config, dur time.Duration, tr *tracer, layer layerResult) (*serveRun, error) {
	g, err := newServeGen(cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	s, err := setupServe(cfg, g)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	t0 := time.Now()
	run := closedLoop(cfg, g, s, dur, tr)
	wall := time.Since(t0)
	if err := s.close(); err != nil {
		return nil, err
	}
	checkServed(cfg, g, run)
	for _, src := range serveSources {
		layer["serve."+src+".ratio"] = float64(len(run.bySource[src])) / float64(run.ops)
		layer["serve."+src+".ms_p50"] = median(run.bySource[src])
	}
	st := run.stats
	layer["serve.shed"] = float64(st.Shed)
	layer["serve.breaker_open"] = float64(st.BreakerOpen)
	layer["incr.unit_hit_ratio"] = st.Engine.UnitHitRate()
	layer["incr.full_replays"] = float64(st.Engine.FullReplays)
	layer["castore.disk_hits"] = float64(st.Engine.DiskHits)
	layer["castore.store_errors"] = float64(st.Engine.StoreErrors)
	layer["castore.corrupt"] = float64(st.Engine.StoreCorrupt)
	summary := ""
	for _, src := range serveSources {
		summary += fmt.Sprintf(" %s=%d", src, len(run.bySource[src]))
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve session: %d requests in %.2fs, %d distinct points, sources%s\n",
		run.ops, wall.Seconds(), len(run.order), summary)
	return run, nil
}
