// Command flowbench regenerates the paper's evaluation tables and figures.
// All flow evaluations fan across a shared worker-pool engine with a
// content-addressed result cache, so configurations repeated between
// tables (Table3/Table4 share every pair; Fig6/Fig8 overlap the sweeps)
// synthesize once.
//
// Usage:
//
//	flowbench                        # run every experiment at SMALL size
//	flowbench -experiment fig5       # one experiment
//	flowbench -size MINI             # change problem size
//	flowbench -workers 8 -stats      # wider pool + engine counters
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/incr"
	"repro/internal/prof"
	"repro/internal/serve"
)

func main() {
	exp := flag.String("experiment", "all",
		"experiment id: table1, table2, fig4, fig5, table3, fig6, table4, fig7, fig8, or all")
	size := flag.String("size", "SMALL", "problem size preset: MINI or SMALL")
	workers := flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	cache := flag.Bool("cache", true, "reuse results for identical (kernel, directives, target, flow) evaluations")
	stats := flag.Bool("stats", false, "print engine counters and phase totals after the run")
	fallback := flag.Bool("fallback", false, "degrade failed adaptor evaluations to the C++ baseline (rows marked *) instead of aborting the table")
	quarantine := flag.String("quarantine", "", "directory for repro bundles of failing evaluations (re-execute with hls-adaptor -replay)")
	retries := flag.Int("retries", 0, "re-executions granted per evaluation for transient failures")
	verify := flag.Bool("verify-semantics", false, "run every evaluation under the differential semantic oracle (a pass that changes results fails as a localized miscompile)")
	incremental := flag.Bool("incremental", false, "memoize pipeline units so repeated evaluations replay unchanged prefixes instead of recompiling")
	incrStore := flag.String("incr-store", "", "directory for the on-disk incremental store (implies -incremental); table regeneration warm-starts across processes")
	server := flag.String("server", "", "hls-serve daemon URL; evaluations run remotely with embedded fallback when it is unreachable or shedding")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
	defer stopProf()

	cfg := experiments.Default()
	cfg.SizeName = strings.ToUpper(*size)
	cfg.Verify = *verify
	eopts := engine.Options{
		Workers:    *workers,
		Cache:      *cache,
		Retries:    *retries,
		Fallback:   *fallback,
		Quarantine: *quarantine,
	}
	switch {
	case *incrStore != "":
		st, err := incr.OpenDiskStore(*incrStore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowbench:", err)
			os.Exit(1)
		}
		eopts.IncrStore = st
	case *incremental:
		eopts.IncrStore = incr.NewMemStore()
	}
	if *server != "" {
		client := serve.NewClient(*server, "flowbench")
		if !client.Ready() {
			fmt.Fprintf(os.Stderr, "flowbench: server %s not ready; evaluating embedded\n", *server)
		}
		eopts.Remote = client.Remote()
	}
	eng := engine.New(eopts)
	cfg.Engine = eng

	funcs := map[string]func(experiments.Config) (*experiments.Table, error){
		"table1": experiments.Table1,
		"table2": experiments.Table2,
		"fig4":   experiments.Fig4,
		"fig5":   experiments.Fig5,
		"table3": experiments.Table3,
		"fig6":   experiments.Fig6,
		"table4": experiments.Table4,
		"fig7":   experiments.Fig7,
		"fig8":   experiments.Fig8,
	}

	t0 := time.Now()
	if *exp == "all" {
		tabs, err := experiments.All(cfg)
		if err != nil {
			stopProf()
			fmt.Fprintln(os.Stderr, "flowbench:", err)
			os.Exit(1)
		}
		for _, t := range tabs {
			fmt.Println(t)
		}
		printStats(*stats, eng, time.Since(t0))
		return
	}
	fn, ok := funcs[strings.ToLower(*exp)]
	if !ok {
		stopProf()
		fmt.Fprintf(os.Stderr, "flowbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	t, err := fn(cfg)
	if err != nil {
		stopProf()
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
	fmt.Println(t)
	printStats(*stats, eng, time.Since(t0))
}

func printStats(enabled bool, eng *engine.Engine, wall time.Duration) {
	if !enabled {
		return
	}
	fmt.Printf("engine: wall=%s workers=%d\n%s",
		wall.Round(time.Microsecond), eng.Workers(), eng.Stats())
}
