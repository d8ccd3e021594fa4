// Command hls-dse runs the automated design-space explorer (an extension
// beyond the paper) on a benchmark kernel or an MLIR file, printing every
// evaluated configuration and the latency/area Pareto frontier. The sweep
// fans across a worker pool; failing configurations are reported and the
// rest of the space still evaluates.
//
// Usage:
//
//	hls-dse -kernel gemm [-size SMALL]        # explore a polybench kernel
//	hls-dse -top name input.mlir              # explore a hand-written kernel
//	hls-dse -kernel gemm -workers 8 -stats    # wider pool + engine counters
//	hls-dse -kernel gemm -journal sweep.jsonl # crash-resumable sweep
//	hls-dse -kernel gemm -fallback -quarantine ./quarantine
//
// -oracle N samples the differential semantic oracle across the sweep:
// every Nth configuration re-executes its IR after every pipeline unit
// against the pristine kernel's reference run (N=1 verifies every point).
// -inject-miscompile config:stage/pass arms a deliberate wrong rewrite in
// one configuration's pipeline, proving end to end that the oracle
// detects, localizes, and quarantines it.
//
// Exit codes: 0 every configuration evaluated cleanly; 1 the oracle found
// a miscompile — a pass that changed results is never a soft failure — or
// a hard failure (nothing usable produced); 2 the sweep completed but some
// configurations failed for non-semantic reasons or were degraded to the
// C++ fallback.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/serve"
)

func main() {
	kernel := flag.String("kernel", "", "polybench kernel name (see flowbench table1)")
	size := flag.String("size", "SMALL", "problem size preset")
	top := flag.String("top", "", "top function for MLIR-file input")
	clock := flag.Float64("clock", 10.0, "target clock period in ns")
	costModel := flag.String("cost-model", "declared", "operator width source: declared (type widths) or inferred (bitwidth analysis)")
	workers := flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-configuration timeout (0 = none)")
	failfast := flag.Bool("failfast", false, "abort the sweep on the first failing configuration")
	precheck := flag.Bool("precheck", false, "prune II-infeasible pipeline points before the sweep (never changes the frontier)")
	stats := flag.Bool("stats", false, "print engine counters and phase totals")
	journalPath := flag.String("journal", "", "write-ahead journal file; a killed sweep rerun with the same file resumes without recomputing finished points")
	fallback := flag.Bool("fallback", false, "degrade configurations whose direct-IR path fails to the C++ baseline flow (marked degraded, exit 2)")
	quarantine := flag.String("quarantine", "", "directory for self-contained repro bundles of failing configurations (re-execute with hls-adaptor -replay)")
	retries := flag.Int("retries", 0, "re-executions granted per configuration for transient failures (timeouts)")
	injectPanic := flag.String("inject-panic", "", "chaos hook: panic inside `config:stage/pass` of the direct path, exercising isolation/fallback/quarantine end to end")
	oracleRate := flag.Int("oracle", 0, "sample the differential semantic oracle on every Nth configuration (1 = every point, 0 = off)")
	injectMiscompile := flag.String("inject-miscompile", "", "chaos hook: corrupt the IR inside `config:stage/pass`, exercising oracle detection/localization/quarantine end to end")
	incrStore := flag.String("incr-store", "", "directory for the on-disk incremental store: pipeline units memoize across processes, so a re-sweep after a directive or target edit replays unchanged prefixes")
	server := flag.String("server", "", "hls-serve daemon URL; points evaluate remotely with embedded fallback when it is unreachable or shedding")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	// main exits through os.Exit on every path, so the profiles are
	// flushed explicitly rather than deferred.
	stopProfile = stopProf

	tgt := hls.DefaultTarget()
	tgt.ClockNs = *clock
	switch *costModel {
	case "declared":
		tgt.CostModel = hls.CostDeclared
	case "inferred":
		tgt.CostModel = hls.CostInferred
	default:
		fatal(fmt.Errorf("unknown -cost-model %q (want declared or inferred)", *costModel))
	}

	spec := engine.RemoteSpec{Kernel: *kernel, Size: *size, Top: *top}
	if *kernel == "" && flag.NArg() > 0 {
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		spec.MLIR = string(src)
	}
	in, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}

	eopts := engine.Options{
		Workers:    *workers,
		Retries:    *retries,
		Fallback:   *fallback,
		Quarantine: *quarantine,
	}
	if *incrStore != "" {
		st, err := incr.OpenDiskStore(*incrStore)
		if err != nil {
			fatal(err)
		}
		eopts.IncrStore = st
	}
	if spec := *injectPanic; spec != "" {
		label, unit, ok := strings.Cut(spec, ":")
		if !ok {
			fatal(fmt.Errorf("-inject-panic wants config:stage/pass, got %q", spec))
		}
		eopts.FlowFaultHook = func(job engine.Job, flowName, stage, pass string) error {
			if flowName == "adaptor" && job.Label == label && stage+"/"+pass == unit {
				panic("injected panic at " + spec)
			}
			return nil
		}
	}
	if spec := *injectMiscompile; spec != "" {
		label, unit, ok := strings.Cut(spec, ":")
		if !ok {
			fatal(fmt.Errorf("-inject-miscompile wants config:stage/pass, got %q", spec))
		}
		eopts.MiscompileHook = func(job engine.Job) string {
			if job.Label == label {
				return unit
			}
			return ""
		}
	}
	opts := dse.Options{
		FailFast: *failfast,
		Timeout:  *timeout,
		Precheck: *precheck,
		Oracle:   *oracleRate,
	}
	if *server != "" {
		client := serve.NewClient(*server, "hls-dse")
		if !client.Ready() {
			fmt.Fprintf(os.Stderr, "hls-dse: server %s not ready; evaluating embedded\n", *server)
		}
		eopts.Remote = client.Remote()
	}
	opts.Engine = engine.New(eopts)
	var journal *resilience.Journal
	if *journalPath != "" {
		j, err := resilience.OpenJournal(*journalPath)
		if err != nil {
			fatal(err)
		}
		journal = j
		opts.Journal = j
	}

	t0 := time.Now()
	res, err := dse.ExploreWith(in, tgt, opts)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(t0)

	degraded := 0
	for _, p := range res.Points {
		if p.Degraded {
			degraded++
		}
	}
	fmt.Printf("explored %d configurations of %s", len(res.Points), in.Top)
	if res.Resumed > 0 {
		fmt.Printf(" (%d resumed from %s)", res.Resumed, *journalPath)
	}
	fmt.Printf(":\n\n")
	pts := append([]dse.Point(nil), res.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Latency() < pts[j].Latency() })
	fmt.Printf("%-20s %10s %10s\n", "config", "latency", "area")
	for _, p := range pts {
		mark := ""
		if p.Degraded {
			mark = "  degraded"
		}
		fmt.Printf("%-20s %10d %10.0f%s\n", p.Label, p.Latency(), p.Area, mark)
	}
	if len(res.Pruned) > 0 {
		fmt.Printf("\npre-check pruned %d configuration(s):\n", len(res.Pruned))
		for _, pp := range res.Pruned {
			fmt.Printf("  %-20s %s\n", pp.Label, pp.Reason)
		}
	}
	if len(res.Errors) > 0 {
		fmt.Printf("\n%d configuration(s) failed:\n", len(res.Errors))
		for _, pe := range res.Errors {
			fmt.Printf("  %-20s %v\n", pe.Label, pe.Err)
		}
	}
	if degraded > 0 {
		fmt.Printf("\n%d configuration(s) degraded to the C++ fallback (direct path failed)\n", degraded)
	}
	if res.Stats.Quarantined > 0 {
		fmt.Printf("%d repro bundle(s) in %s (re-execute with hls-adaptor -replay)\n",
			res.Stats.Quarantined, *quarantine)
	}
	fmt.Printf("\nPareto frontier (latency vs area):\n%s", res)
	if *stats {
		fmt.Printf("\nengine: wall=%s workers=%d\n%s",
			wall.Round(time.Microsecond), opts.Engine.Workers(), res.Stats)
	}
	if journal != nil {
		journal.Close()
	}
	// A miscompile is never a soft failure: a pass that changed results
	// exits 1, same as a hard failure. Exit 2 distinguishes "the sweep
	// completed but not every point is the direct path's own result" from
	// clean success.
	miscompiles := 0
	for _, pe := range res.Errors {
		if pf, ok := resilience.AsPassFailure(pe.Err); ok && pf.Kind == resilience.KindMiscompile {
			miscompiles++
		}
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "hls-dse:", err)
	}
	if miscompiles > 0 {
		fmt.Fprintf(os.Stderr, "hls-dse: MISCOMPILE: the semantic oracle caught %d configuration(s) computing wrong results\n", miscompiles)
		os.Exit(1)
	}
	if len(res.Errors) > 0 || degraded > 0 {
		os.Exit(2)
	}
}

// stopProfile flushes the -cpuprofile/-memprofile outputs; replaced in
// main once profiling starts.
var stopProfile = func() error { return nil }

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "hls-dse:", err)
	os.Exit(1)
}
