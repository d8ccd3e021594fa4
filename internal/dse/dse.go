// Package dse implements a ScaleHLS-style design-space explorer on top of
// the adaptor flow — an extension beyond the paper showing what the direct
// IR path buys: with no C++ round trip in the loop, sweeping directive
// configurations is cheap enough to enumerate a whole space and return its
// Pareto frontier.
package dse

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/mlir/passes"
	"repro/internal/resilience"
)

// Point is one evaluated design.
type Point struct {
	Label  string
	D      flow.Directives
	Report *hls.Report
	// Area is the scalarized resource cost used for Pareto ranking.
	Area float64
	// Degraded marks a point whose report came from the C++ fallback path
	// after the direct-IR flow failed (engine Fallback option).
	Degraded bool
}

// Latency returns the point's latency in cycles.
func (p Point) Latency() int64 { return p.Report.LatencyCycles }

// areaOf scalarizes a report's resources into equivalent LUTs (DSP and BRAM
// weighted by their typical LUT-equivalent silicon cost).
func areaOf(r *hls.Report) float64 {
	return float64(r.LUT) + 0.5*float64(r.FF) + 100*float64(r.DSP) + 350*float64(r.BRAM)
}

// Area is the exported scalarization, so external sweep drivers (the
// compile-service daemon's streamed points, thin clients reconstructing
// frontiers) rank points with exactly the ranking Explore uses.
func Area(r *hls.Report) float64 { return areaOf(r) }

// Config is one directive configuration of the design space.
type Config struct {
	Label string
	D     flow.Directives
}

// Space enumerates the directive configurations to evaluate.
func Space() []Config {
	var out []Config
	add := func(label string, d flow.Directives) {
		out = append(out, Config{label, d})
	}
	add("base", flow.Directives{})
	for _, ii := range []int{1, 2} {
		for _, part := range []int{0, 2, 4} {
			for _, flat := range []bool{false, true} {
				d := flow.Directives{Pipeline: true, II: ii, Flatten: flat}
				label := fmt.Sprintf("pipeII%d", ii)
				if part > 0 {
					d.Partition = &passes.PartitionSpec{Kind: "cyclic", Factor: part, Dim: 0}
					label += fmt.Sprintf("+part%d", part)
				}
				if flat {
					label += "+flat"
				}
				add(label, d)
			}
		}
	}
	for _, u := range []int{2, 4} {
		add(fmt.Sprintf("unroll%d", u), flow.Directives{Unroll: u})
		add(fmt.Sprintf("unroll%d+part%d", u, u), flow.Directives{Unroll: u,
			Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: u, Dim: 0}})
	}
	return out
}

// PointError records one configuration that failed to evaluate.
type PointError struct {
	Label string
	Err   error
}

// PrunedPoint records a configuration the feasibility pre-check removed
// from the sweep without evaluating it.
type PrunedPoint struct {
	Label  string
	Reason string
}

// Result holds the explored space and its Pareto frontier.
type Result struct {
	Points []Point
	// Pareto is the latency/area frontier, sorted by ascending latency.
	Pareto []Point
	// Errors lists configurations that failed; Points holds only the
	// successes, in space order.
	Errors []PointError
	// Pruned lists configurations the feasibility pre-check skipped (only
	// populated with Options.Precheck), in space order.
	Pruned []PrunedPoint
	// Resumed counts points served from the journal instead of evaluated
	// (Options.Journal).
	Resumed int
	// Stats snapshots the evaluation engine's counters (cache hits,
	// summed per-phase compute time) for this exploration's engine.
	Stats engine.Stats
}

// Options selects which jobs a sweep issues and how it runs and collects
// them. How each job is evaluated — pool size, caches, the incremental
// store, fault hooks, remote daemon — is the Engine's configuration.
type Options struct {
	// FailFast restores the legacy abort-on-first-error policy; the
	// default records the failing label and keeps sweeping.
	FailFast bool
	// Timeout bounds each configuration's wall time (0 = none).
	Timeout time.Duration
	// Engine evaluates the jobs, sharing its caches and stats with every
	// other batch it runs; nil means engine.New(engine.Options{}).
	Engine *engine.Engine
	// Journal, when non-nil, is the write-ahead log for crash-resumable
	// sweeps: every completed point is appended (and synced) the moment its
	// worker finishes, and points whose key is already journaled are served
	// from it without re-evaluation. A killed sweep rerun against the same
	// journal file completes the remainder and returns the Pareto frontier
	// a single uninterrupted run would have — byte-identical, because
	// points are reconstructed in space order regardless of which side of
	// the crash produced them.
	Journal *resilience.Journal
	// Precheck runs the feasibility pre-check before the sweep: one
	// adaptor-flow preparation (no synthesis) yields each pipelined loop's
	// II bounds from hls.LoopBounds — the recurrence floor plus
	// memory-access counts priced into a per-group resource floor under
	// each group's partition widths —
	// and directive points that cannot produce a distinct schedule (pipeline
	// IIs below their group's floor other than the smallest) are pruned
	// without evaluation. Pruning never changes the Pareto frontier: the
	// kept representative of each pruned group evaluates to the identical
	// report. Off by default.
	Precheck bool
	// Oracle samples the differential semantic oracle across the sweep:
	// when N > 0, every Nth configuration by space index (idx % N == 0)
	// runs with Job.VerifySemantics, re-executing the IR after
	// every pipeline unit against the pristine kernel's reference run. A
	// 1-in-N spot check catches a directive-dependent miscompile without
	// paying the oracle on the whole space; Oracle = 1 verifies every
	// point. Sampled points carry distinct cache/journal keys from their
	// unverified twins.
	Oracle int
}

// Explore evaluates the whole directive space for an input in parallel.
// in.Build must return a fresh module per call (flows mutate their input;
// the engine enforces this). Every job carries the input's scope and spec,
// so an engine configured with Options.Remote can ship points to a
// compile-service daemon. Failing configurations are recorded in
// Result.Errors and the sweep continues; the returned error is non-nil
// only when nothing evaluated successfully.
func Explore(in engine.Input, tgt hls.Target) (*Result, error) {
	return ExploreWith(in, tgt, Options{})
}

// ExploreWith is Explore with explicit options.
func ExploreWith(in engine.Input, tgt hls.Target, opts Options) (*Result, error) {
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Options{})
	}
	sw := NewSweep(in, tgt, opts)
	// rs holds each job's result at its index, whether it came from the
	// journal or from this run's engine — assembly in space order is what
	// makes a resumed sweep's frontier byte-identical to an uninterrupted
	// one.
	rs := make([]engine.JobResult, len(sw.Jobs))
	var jobs []engine.Job
	var jobSlot []int
	resumed := 0
	for i, job := range sw.Jobs {
		if opts.Journal != nil {
			var e journalEntry
			if ok, jerr := opts.Journal.Get(engine.Key(job), &e); ok && jerr == nil {
				rs[i] = engine.JobResult{Label: job.Label, Res: &flow.Result{Report: e.Report},
					Degraded: e.Degraded}
				resumed++
				continue
			}
		}
		jobs = append(jobs, job)
		jobSlot = append(jobSlot, i)
	}
	batch := engine.BatchOptions{
		ContinueOnError: !opts.FailFast,
		Timeout:         opts.Timeout,
	}
	if opts.Journal != nil {
		// Write-ahead: the worker journals each success before the batch
		// returns, so a kill mid-sweep loses at most in-flight work.
		batch.OnResult = func(i int, r engine.JobResult) {
			if r.Err != nil || r.Res == nil {
				return
			}
			_ = opts.Journal.Put(engine.Key(jobs[i]), journalEntry{
				Label: r.Label, Degraded: r.Degraded,
				Report: r.Res.Report, Area: areaOf(r.Res.Report),
			})
		}
	}
	ran, err := eng.RunBatch(context.Background(), jobs, batch)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	for pos, r := range ran {
		rs[jobSlot[pos]] = r
	}
	res := sw.Collect(rs)
	res.Resumed = resumed
	if len(res.Points) == 0 {
		if len(res.Errors) == 0 {
			return nil, fmt.Errorf("dse: empty design space")
		}
		first := res.Errors[0]
		return nil, fmt.Errorf("dse: no configuration evaluated; first failure %s: %w", first.Label, first.Err)
	}
	res.Stats = eng.Stats()
	return res, nil
}

// Sweep is the layout of one design-space sweep: the job of every
// configuration the pre-check kept, in space order, and the configurations
// it pruned. ExploreWith runs a sweep through its engine and journal; a
// caller that runs the jobs in a batch of its own (the compile service,
// which streams each point as it finishes) hands the results to Collect.
type Sweep struct {
	Jobs   []engine.Job
	Pruned []PrunedPoint
}

// NewSweep lays out the sweep of in under tgt: one adaptor job per
// configuration of Space, labelled with it, after the pre-check when
// opts.Precheck is set, and verified on every opts.Oracle-th kept
// configuration.
func NewSweep(in engine.Input, tgt hls.Target, opts Options) Sweep {
	space := Space()
	var sw Sweep
	if opts.Precheck {
		space, sw.Pruned = pruneInfeasible(space, in.Build, in.Top, tgt)
	}
	sw.Jobs = make([]engine.Job, len(space))
	for i, cfg := range space {
		job := in.Job(engine.KindAdaptor, cfg.D, tgt)
		job.Label = cfg.Label
		job.VerifySemantics = opts.Oracle > 0 && i%opts.Oracle == 0
		sw.Jobs[i] = job
	}
	return sw
}

// Collect assembles the results of the sweep's jobs, one per job in
// order: the evaluated points in space order, the failures, and the
// Pareto frontier.
func (sw Sweep) Collect(rs []engine.JobResult) *Result {
	res := &Result{Pruned: sw.Pruned}
	for i, r := range rs {
		if r.Err != nil {
			res.Errors = append(res.Errors, PointError{Label: r.Label, Err: r.Err})
			continue
		}
		res.Points = append(res.Points, Point{Label: r.Label, D: sw.Jobs[i].Directives,
			Report: r.Res.Report, Area: areaOf(r.Res.Report), Degraded: r.Degraded})
	}
	res.Pareto = paretoFrontier(res.Points)
	return res
}

// journalEntry is the persisted record of one completed point. The report
// is stored whole so a resumed sweep rebuilds points without rerunning
// flows.
type journalEntry struct {
	Label    string      `json:"label"`
	Degraded bool        `json:"degraded,omitempty"`
	Report   *hls.Report `json:"report"`
	Area     float64     `json:"area"`
}

// pruneInfeasible removes II-infeasible pipeline points from the space: one
// un-scheduled flow preparation gives each pipelined loop's bound
// (hls.LoopBounds) — its recurrence floor and per-base access counts —
// which prices each directive group (identical configurations except the
// requested II) at max(RecMII, ResMII) under that group's partition widths,
// as the scheduler does. Within a group, every request at or below the
// group floor except the smallest is pruned — the scheduler would produce
// byte-identical reports for all of them (achieved II is max(request,
// RecMII, ResMII)), and keeping the smallest (which comes first in space
// order) preserves the Pareto frontier's labels under the stable
// tie-breaking sort. Any pre-check failure keeps the full space: pruning is
// an optimization, never a gate.
func pruneInfeasible(space []Config, build func() *mlir.Module, top string, tgt hls.Target) ([]Config, []PrunedPoint) {
	lm, err := flow.PrepareLLVM(build(), top, flow.Directives{Pipeline: true, II: 1})
	if err != nil {
		return space, nil
	}
	f := lm.FindFunc(top)
	if f == nil {
		return space, nil
	}
	bounds := hls.LoopBounds(hls.Analyze(f), tgt)
	// groupFloor returns min over pipelined loops of max(RecMII, ResMII)
	// under the group's uniform all-parameter partition, plus that loop's
	// two components for the pruning reason; 0 without a pipelined loop,
	// which prunes nothing.
	groupFloor := func(d flow.Directives) (floor, rec, res int) {
		var kind string
		var factor int
		if p := d.Partition; p != nil {
			kind, factor = p.Kind, p.Factor
		}
		for _, lb := range bounds {
			if !lb.Pipelined {
				continue
			}
			r := lb.ResMII(tgt, kind, factor)
			if f := max(lb.RecMII, r); floor == 0 || f < floor {
				floor, rec, res = f, lb.RecMII, r
			}
		}
		return floor, rec, res
	}
	// A group is the normal form with the requested II left out.
	groupKey := func(d flow.Directives) string {
		d.II = 1
		return d.Key()
	}
	keepII := map[string]int{}
	for _, cfg := range space {
		if !cfg.D.Pipeline {
			continue
		}
		floor, _, _ := groupFloor(cfg.D)
		ii := cfg.D.Canon().II
		if ii > floor {
			continue
		}
		k := groupKey(cfg.D)
		if cur, seen := keepII[k]; !seen || ii < cur {
			keepII[k] = ii
		}
	}
	var kept []Config
	var pruned []PrunedPoint
	for _, cfg := range space {
		if cfg.D.Pipeline {
			ii := cfg.D.Canon().II
			floor, rec, res := groupFloor(cfg.D)
			if m, seen := keepII[groupKey(cfg.D)]; seen && ii <= floor && ii > m {
				reason := fmt.Sprintf("requested II=%d is below the dependence-implied floor RecMII=%d; schedule identical to the kept II=%d point",
					ii, floor, m)
				if res > rec {
					reason = fmt.Sprintf("requested II=%d is below the port-implied floor ResMII=%d (RecMII=%d) under this group's partitioning; schedule identical to the kept II=%d point",
						ii, res, rec, m)
				}
				pruned = append(pruned, PrunedPoint{Label: cfg.Label, Reason: reason})
				continue
			}
		}
		kept = append(kept, cfg)
	}
	return kept, pruned
}

// dominates reports whether a is at least as good as b in both objectives
// and strictly better in one.
func dominates(a, b Point) bool {
	if a.Latency() > b.Latency() || a.Area > b.Area {
		return false
	}
	return a.Latency() < b.Latency() || a.Area < b.Area
}

// paretoFrontier returns the non-dominated subset sorted by ascending
// latency, one point per objective pair, in O(n log n): after a stable
// sort by (latency, area) a point survives iff its area is strictly below
// every area seen so far — anything else is dominated by (or duplicates)
// an earlier point with latency <= its own.
func paretoFrontier(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Latency() != sorted[j].Latency() {
			return sorted[i].Latency() < sorted[j].Latency()
		}
		return sorted[i].Area < sorted[j].Area
	})
	var out []Point
	for _, p := range sorted {
		if len(out) == 0 || p.Area < out[len(out)-1].Area {
			out = append(out, p)
		}
	}
	return out
}

// String renders the frontier as a table. Points the C++ fallback path
// produced are marked degraded — their numbers are the baseline flow's,
// not the direct path's.
func (r *Result) String() string {
	s := fmt.Sprintf("%-18s %10s %10s\n", "config", "latency", "area")
	for _, p := range r.Pareto {
		mark := ""
		if p.Degraded {
			mark = "  degraded"
		}
		s += fmt.Sprintf("%-18s %10d %10.0f%s\n", p.Label, p.Latency(), p.Area, mark)
	}
	return s
}
