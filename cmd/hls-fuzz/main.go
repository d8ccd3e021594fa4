// Command hls-fuzz runs a budgeted generative differential-fuzzing
// campaign: seeded kgen kernels (random-but-well-defined affine loop
// nests with directive configurations sampled from the DSE space) are
// run through both flows under the semantic oracle; every deterministic
// failure is auto-bisected into a quarantine repro bundle, delta-reduced
// to a minimal kernel that still fails the same way, and the reduced
// bundle is quarantined next to the original (…-reduced.json).
//
// Usage:
//
//	hls-fuzz [-seed N] [-count N] [-budget 30s] [-flows adaptor,cxx]
//	         [-quarantine DIR] [-workers N] [-no-reduce]
//	         [-inject-miscompile stage/pass]
//
// The campaign stops at -count kernels or when -budget elapses,
// whichever comes first. Determinism: the kernel stream is a pure
// function of -seed, so a failing campaign is re-runnable bit-for-bit
// (budget permitting) and any finding is pinned by its seed.
//
// -inject-miscompile arms a deterministic IR corruption after the named
// unit in every job — the self-test proving the whole
// find→bisect→reduce→quarantine pipeline works end to end.
//
// Exit codes: 0 campaign clean, 1 findings were quarantined, 2 the
// campaign itself could not run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/reduce"
	"repro/internal/resilience"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "base seed; kernel i uses seed+i")
	count := flag.Int("count", 0, "kernel budget (0 = until -budget elapses)")
	budget := flag.Duration("budget", 30*time.Second, "wall-clock budget for the campaign")
	flows := flag.String("flows", "adaptor,cxx", "comma-separated flow kinds to differentially test")
	qdir := flag.String("quarantine", "quarantine", "directory for repro bundles")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	noReduce := flag.Bool("no-reduce", false, "skip delta-reduction of findings")
	inject := flag.String("inject-miscompile", "", "arm a deterministic corruption after this stage/pass in every job (campaign self-test)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-job timeout")
	verbose := flag.Bool("v", false, "log every kernel")
	flag.Parse()

	var kinds []engine.Kind
	for _, f := range strings.Split(*flows, ",") {
		switch strings.TrimSpace(f) {
		case "adaptor":
			kinds = append(kinds, engine.KindAdaptor)
		case "cxx":
			kinds = append(kinds, engine.KindCxx)
		case "":
		default:
			fmt.Fprintf(os.Stderr, "hls-fuzz: unknown flow kind %q\n", f)
			return 2
		}
	}
	if len(kinds) == 0 {
		fmt.Fprintln(os.Stderr, "hls-fuzz: no flows selected")
		return 2
	}
	if *count <= 0 && *budget <= 0 {
		fmt.Fprintln(os.Stderr, "hls-fuzz: need -count or a positive -budget")
		return 2
	}

	eng := engine.New(engine.Options{
		Workers:         *workers,
		ContinueOnError: true,
		Timeout:         *timeout,
		Quarantine:      *qdir,
		MiscompileHook: func(engine.Job) string {
			return *inject
		},
	})

	deadline := time.Now().Add(*budget)
	ctx := context.Background()
	tgt := hls.DefaultTarget()
	const chunk = 32

	var kernels, runs, findings, reducedOK int
	kindCount := map[resilience.FailureKind]int{}
	next := *seed
	for {
		if *count > 0 && kernels >= *count {
			break
		}
		if *budget > 0 && !time.Now().Before(deadline) {
			break
		}
		n := chunk
		if *count > 0 && *count-kernels < n {
			n = *count - kernels
		}
		var jobs []engine.Job
		for i := 0; i < n; i++ {
			k := kgen.Generate(next)
			next++
			kernels++
			if *verbose {
				fmt.Fprintf(os.Stderr, "hls-fuzz: %s [%s]\n", k.Name, k.DirectiveLabel)
			}
			for _, kind := range kinds {
				jobs = append(jobs, engine.Job{
					Label:           fmt.Sprintf("%s %s [%s]", k.Name, kind, k.DirectiveLabel),
					Kind:            kind,
					Build:           k.Build,
					Top:             k.Name,
					Directives:      k.Directives,
					Target:          tgt,
					VerifySemantics: true,
				})
			}
		}
		results, err := eng.Run(ctx, jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hls-fuzz: engine:", err)
			return 2
		}
		runs += len(results)
		for _, r := range results {
			if r.Err == nil {
				continue
			}
			if resilience.Transient(r.Err) {
				fmt.Fprintf(os.Stderr, "hls-fuzz: transient: %s: %v\n", r.Label, r.Err)
				continue
			}
			findings++
			if r.Failure != nil {
				kindCount[r.Failure.Kind]++
			}
			fmt.Fprintf(os.Stderr, "hls-fuzz: FINDING %s: %v\n", r.Label, r.Err)
			if r.BundlePath == "" {
				continue
			}
			fmt.Fprintf(os.Stderr, "hls-fuzz:   quarantined: %s\n", r.BundlePath)
			if *noReduce {
				continue
			}
			if path, red, err := reduceBundle(*qdir, r.BundlePath); err != nil {
				fmt.Fprintf(os.Stderr, "hls-fuzz:   reduce failed: %v\n", err)
			} else {
				reducedOK++
				fmt.Fprintf(os.Stderr, "hls-fuzz:   reduced %d->%d ops, %d->%d loops (%d steps): %s\n",
					red.Orig.Ops, red.Final.Ops, red.Orig.Loops, red.Final.Loops, red.Steps, path)
			}
		}
	}

	fmt.Fprintf(os.Stderr, "hls-fuzz: %d kernels, %d flow runs, %d findings, %d reduced\n",
		kernels, runs, findings, reducedOK)
	for kind, c := range kindCount {
		fmt.Fprintf(os.Stderr, "hls-fuzz:   %s: %d\n", kind, c)
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// reduceBundle minimizes one quarantined bundle and writes the reduced
// bundle next to it.
func reduceBundle(qdir, path string) (string, reduce.Result, error) {
	b, err := resilience.ReadBundle(path)
	if err != nil {
		return "", reduce.Result{}, err
	}
	nb, res, err := reduce.Bundle(b, reduce.Options{})
	if err != nil {
		return "", res, err
	}
	out, err := resilience.WriteBundle(qdir, nb)
	return out, res, err
}
