package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/hls"
)

// setupRuns is how many times a timed run repeats its set-up; setup_s is
// the median.
const setupRuns = 9

// pairSize is each pairs workload's PolyBench size preset. verified-pairs
// runs at MINI so that one run still covers the whole design space under
// the oracle: its QoR then repeats for every seed, and its job mix is the
// same whatever the seed.
var pairSize = map[string]string{"compile-pairs": "SMALL", "verified-pairs": "MINI"}

// pairSetup is what a pairs run builds before timing.
type pairSetup struct {
	gen  *pairGen
	refs refOutputs
}

// setupPairs generates the inputs, computes the reference outputs and
// warms the flows with one untimed round, so lazy initialisation and heap
// growth happen before timing.
func setupPairs(cfg config) (*pairSetup, error) {
	gen, err := newPairGen(cfg.seed, cfg.workload, pairSize[cfg.workload])
	if err != nil {
		return nil, err
	}
	st := &pairSetup{gen: gen, refs: newRefOutputs(gen.kernels, gen.sizes)}
	eng := engine.New(engine.Options{Workers: cfg.workers, ContinueOnError: true})
	rs, err := eng.RunBatch(context.Background(), engineJobs(gen.round(0), false), engine.BatchOptions{ContinueOnError: true})
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.Label, r.Err)
		}
	}
	return st, nil
}

func engineJobs(jobs []pairJob, verify bool) []engine.Job {
	out := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.engineJob(verify)
	}
	return out
}

// distinctOut is the first output of one distinct job.
type distinctOut struct {
	job        pairJob
	report     *hls.Report
	reportJSON string
	final      string // final LLVM text, kept only when asked
}

// pairRun is what one timed pass over the job stream measured.
type pairRun struct {
	failures
	ops       int
	busy      time.Duration // wall time inside engine batches
	cpu       time.Duration // process CPU time inside engine batches
	jobTime   time.Duration // summed per-job elapsed time
	latencies []float64     // per-job elapsed, ms
	distinct  map[string]*distinctOut
}

// timePairs runs whole rounds through a fresh engine until dur of batch
// time has passed, at least minOps jobs ran and at least minRounds rounds
// completed. Outputs are checked between batches, outside the timed span.
func timePairs(st *pairSetup, verify bool, workers int, dur time.Duration, minOps, minRounds int, keepFinal bool) (*pairRun, error) {
	run := &pairRun{distinct: map[string]*distinctOut{}}
	eng := engine.New(engine.Options{Workers: workers, ContinueOnError: true})
	for r := 0; ; r++ {
		jobs := st.gen.round(r)
		ej := engineJobs(jobs, verify)
		c0, t0 := cpuTime(), time.Now()
		rs, err := eng.RunBatch(context.Background(), ej, engine.BatchOptions{ContinueOnError: true})
		run.busy += time.Since(t0)
		run.cpu += cpuTime() - c0
		if err != nil {
			return nil, err
		}
		var items []checkItem
		for i, res := range rs {
			run.ops++
			run.latencies = append(run.latencies, ms(res.Elapsed))
			run.jobTime += res.Elapsed
			key := jobs[i].key()
			if res.Err != nil || res.Res == nil || res.Degraded {
				run.fail(fmt.Errorf("%s: job failed: %v", key, res.Err))
				continue
			}
			data, err := json.Marshal(res.Res.Report)
			if err != nil {
				return nil, err
			}
			if prev, seen := run.distinct[key]; seen {
				if prev.reportJSON != string(data) {
					run.fail(fmt.Errorf("%s: report differs from the job's first run", key))
				}
				continue
			}
			d := &distinctOut{job: jobs[i], report: res.Res.Report, reportJSON: string(data)}
			if keepFinal {
				d.final = res.Res.LLVM.Print()
			}
			run.distinct[key] = d
			items = append(items, checkItem{key: key, lm: res.Res.LLVM, kernel: jobs[i].Kernel, size: jobs[i].Size})
		}
		for _, err := range checkAll(items, st.refs, workers) {
			if err != nil {
				run.fail(err)
			}
		}
		if run.busy >= dur && run.ops >= minOps && r+1 >= minRounds {
			return run, nil
		}
	}
}

// qor computes the paper's design-quality figures over the distinct jobs:
// geometric means of latency cycles and of the scalarized area (dse.Area)
// over both flows, and of the adaptor/C++ latency ratio over
// kernel-configuration pairs.
func qor(distinct map[string]*distinctOut) (lat, area, ratio float64) {
	var lats, areas, ratios []float64
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed summation order makes the means repeat exactly
	for _, k := range keys {
		d := distinct[k]
		lats = append(lats, float64(d.report.LatencyCycles))
		areas = append(areas, dse.Area(d.report))
		if d.job.Kind != engine.KindAdaptor {
			continue
		}
		twin := d.job
		twin.Kind = engine.KindCxx
		if c, ok := distinct[twin.key()]; ok && c.report.LatencyCycles > 0 {
			ratios = append(ratios, float64(d.report.LatencyCycles)/float64(c.report.LatencyCycles))
		}
	}
	return geomean(lats), geomean(areas), geomean(ratios)
}

// runPairs runs compile-pairs (verify false) or verified-pairs (verify
// true).
func runPairs(cfg config, verify bool) (*result, error) {
	var st *pairSetup
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := setupPairs(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
		if cfg.trace {
			break
		}
	}
	if cfg.trace {
		return tracePairs(cfg, st, verify)
	}
	// The run completes at least the rounds that cover the whole design
	// space, so its QoR is the space's and the same for every seed.
	resetPeakRSS()
	run, err := timePairs(st, verify, cfg.workers, cfg.seconds, minOps, st.gen.rounds(), false)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	run.report()
	lat, area, ratio := qor(run.distinct)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d jobs, %d distinct, %d rounds, %.2fs in batches\n",
		cfg.workload, run.ops, len(run.distinct), run.ops/(2*len(st.gen.kernels)), run.busy.Seconds())
	return &result{
		Correct:   run.failed == 0,
		Attempted: run.ops,
		Failed:    run.failed,
		Metrics: map[string]metric{
			"setup_s":                    {median(setups), "s"},
			"throughput_per_s":           {float64(run.ops) / run.busy.Seconds(), "1/s"},
			"latency_ms_p50":             {percentile(run.latencies, 50), "ms"},
			"latency_ms_p95":             {percentile(run.latencies, 95), "ms"},
			"cpu_ms_per_op":              {ms(run.cpu) / float64(run.ops), "ms"},
			"peak_rss_mb":                {rss, "MB"},
			"qor_latency_cycles_geomean": {lat, "cycles"},
			"qor_area_lut_geomean":       {area, "LUT"},
			"qor_latency_ratio_geomean":  {ratio, "ratio"},
		},
	}, nil
}

// tracePairs is the traced mode of the pairs workloads. A quarter of the
// run measures the engine untraced with every worker (engine utilization,
// and the flow outputs the replay guard compares against), a quarter
// measures it untraced with one worker, and a quarter replays the same job
// stream unit by unit on one goroutine with spans. Tracing overhead is the
// serial traced throughput against the serial untraced one, leaving out the
// time the replay spends printing IR to size it. On
// compile-pairs the last quarter is the serve session (serve.go), which
// measures the serve, incr and castore layers.
func tracePairs(cfg config, st *pairSetup, verify bool) (*result, error) {
	part := cfg.seconds / 4
	full, err := timePairs(st, verify, cfg.workers, part, 0, 1, true)
	if err != nil {
		return nil, err
	}
	serial, err := timePairs(st, verify, 1, part, 0, 1, false)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	lc := newLayerCounts()
	traced := &pairRun{}
	for r := 0; traced.busy < part; r++ {
		for _, j := range st.gen.round(r) {
			t0, m0 := time.Now(), lc.measuring
			rep, lm, err := replay(tr, lc, replayJob{id: traced.ops, kernel: j.Kernel, size: j.Size,
				kind: j.Kind, d: j.Config.D, tgt: hls.DefaultTarget(), verify: verify})
			traced.busy += time.Since(t0) - (lc.measuring - m0)
			traced.ops++
			if err != nil {
				traced.fail(fmt.Errorf("replay %s: %w", j.key(), err))
				continue
			}
			if err := guardPair(full, j, verify, rep, lm.Print()); err != nil {
				traced.fail(err)
			}
		}
	}
	layer := layerResult{}
	layer.addReplay(tr, lc)
	served := &serveRun{}
	if !verify {
		// The clients trace concurrently, so allocations are not counted.
		tr.countAllocs = false
		if served, err = serveSession(cfg, part, tr, layer); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	layer["engine.utilization"] = full.jobTime.Seconds() / (full.busy.Seconds() * float64(cfg.workers))
	untracedRate := float64(serial.ops) / serial.busy.Seconds()
	tracedRate := float64(traced.ops) / traced.busy.Seconds()
	layer["trace.throughput_ratio"] = tracedRate / untracedRate
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d jobs replayed, %.3f jobs/s traced vs %.3f untraced (serial); spans in %s\n",
		cfg.workload, traced.ops, tracedRate, untracedRate, path)
	failed := full.failed + serial.failed + traced.failed + served.failed
	for _, f := range []*failures{&full.failures, &serial.failures, &traced.failures, &served.failures} {
		f.report()
	}
	return &result{
		Correct:   failed == 0,
		Attempted: full.ops + serial.ops + traced.ops + served.ops,
		Failed:    failed,
		Metrics:   layer.metrics(),
	}, nil
}

// guardPair is the replay guard: the unit-by-unit replay must reproduce the
// flow's report and final LLVM text. Jobs the untraced pass did not reach
// are run through the engine here, outside any timing.
func guardPair(full *pairRun, j pairJob, verify bool, rep *hls.Report, final string) error {
	want, ok := full.distinct[j.key()]
	if !ok {
		rs, err := engine.New(engine.Options{Workers: 1, ContinueOnError: true}).RunBatch(
			context.Background(), []engine.Job{j.engineJob(verify)}, engine.BatchOptions{ContinueOnError: true})
		if err != nil {
			return err
		}
		if rs[0].Err != nil {
			return fmt.Errorf("%s: flow failed: %w", j.key(), rs[0].Err)
		}
		data, err := json.Marshal(rs[0].Res.Report)
		if err != nil {
			return err
		}
		want = &distinctOut{job: j, reportJSON: string(data), final: rs[0].Res.LLVM.Print()}
		full.distinct[j.key()] = want
	}
	got, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if string(got) != want.reportJSON {
		return fmt.Errorf("replay guard: %s: replayed report differs from the flow's", j.key())
	}
	if final != want.final {
		return fmt.Errorf("replay guard: %s: replayed final LLVM differs from the flow's", j.key())
	}
	return nil
}
