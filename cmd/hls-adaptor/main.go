// Command hls-adaptor is the paper's contribution as a standalone tool: it
// reads LLVM IR (as produced by mlir-translate), legalizes it into
// HLS-readable IR, prints the adapted module, and reports the applied fixes
// on stderr.
//
// Usage:
//
//	hls-adaptor [-top NAME] [-report] [-verify-semantics] [input.ll]
//	hls-adaptor -replay repro-<id>.json   # re-execute a quarantine bundle
//
// -verify-semantics differentially executes the module before and after
// adaptation on identical deterministic inputs (bitwise for integers, ULP
// tolerance for floats) and runs the strict HLS conformance gate on the
// result; a divergence is a miscompile and exits 1 — never 2. A module the
// oracle cannot execute (an unrecoverable shape, an unsupported op) is an
// oracle limitation, warned about and not treated as a failure.
//
// Replay mode re-runs the flow recorded in a repro bundle (written by the
// engine's quarantine bisector) with panic isolation and verify-each —
// re-arming the bundle's recorded miscompile injection and the semantic
// oracle for miscompile-kind failures — and reports whether the recorded
// failure reproduces. Exit codes: 0 the failure reproduced (and was
// re-pinned), 2 the replay ran clean (the original failure was transient
// or environmental), 1 the bundle could not be replayed at all. The
// resilience.ReplayExit* constants are the single source of truth for
// these values; README and this help text mirror them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/llvm"
	"repro/internal/llvm/parser"
	"repro/internal/mlir"
	mlirparser "repro/internal/mlir/parser"
	"repro/internal/oracle"
	"repro/internal/resilience"
)

func main() {
	top := flag.String("top", "", "top function (defaults to the hls.top attribute)")
	report := flag.Bool("report", true, "print the fix report to stderr")
	check := flag.Bool("check", true, "verify the result passes the HLS readability gate")
	runLint := flag.Bool("lint", false, "run the hls-lint static-analysis suite on the adapted IR (report on stderr)")
	verify := flag.Bool("verify-semantics", false, "differentially execute the module before and after adaptation and run the strict conformance gate (miscompile = exit 1)")
	replay := flag.String("replay", "", "re-execute a quarantine repro bundle and report whether its failure reproduces")
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}

	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := parser.Parse(src)
	if err != nil {
		fatal(err)
	}
	rep, err := core.Adapt(m, core.Options{TopFunc: *top})
	if err != nil {
		fatal(err)
	}
	if *verify {
		verifySemantics(src, m, *top)
	}
	if *check {
		if vs := hls.Check(m); len(vs) > 0 {
			fmt.Fprintln(os.Stderr, "hls-adaptor: WARNING: result still violates the gate:")
			for _, v := range vs {
				fmt.Fprintln(os.Stderr, "  ", v)
			}
		}
	}
	if *report {
		fmt.Fprintf(os.Stderr, "hls-adaptor: %d fixes applied\n%s", rep.Total(), rep)
	}
	if *runLint {
		if ds := lint.Module(m, lint.Options{}); len(ds) > 0 {
			fmt.Fprintf(os.Stderr, "hls-adaptor: lint report:\n%s", ds.Text())
		}
	}
	fmt.Print(m.Print())
}

// verifySemantics differentially executes the pristine input (re-parsed
// from src) against the adapted module on identical deterministic buffers,
// then runs the strict conformance gate on the adapted module. A
// divergence or a conformance diagnostic is fatal (exit 1); a module the
// oracle cannot set up — no recoverable static shapes, an op the
// interpreter lacks — is an oracle limitation, reported as a warning.
func verifySemantics(src string, adapted *llvm.Module, topFlag string) {
	topFn := core.FindTop(adapted, topFlag)
	if topFn == nil {
		fmt.Fprintln(os.Stderr, "hls-adaptor: verify-semantics: cannot resolve the top function; skipping")
		return
	}
	pristine, err := parser.Parse(src)
	if err != nil {
		fatal(err)
	}
	shapes, err := oracle.ShapesOf(topFn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hls-adaptor: verify-semantics: oracle limitation:", err)
		return
	}
	h, err := oracle.NewFromLLVM(pristine, topFn.Name, shapes)
	if err != nil {
		if oracle.IsMiscompile(err) {
			fatal(fmt.Errorf("verify-semantics: input module faults under execution: %w", err))
		}
		fmt.Fprintln(os.Stderr, "hls-adaptor: verify-semantics: oracle limitation:", err)
		return
	}
	if err := h.CheckLLVM(adapted); err != nil {
		if oracle.IsMiscompile(err) {
			fatal(fmt.Errorf("verify-semantics: MISCOMPILE: adaptation changed results: %w", err))
		}
		fmt.Fprintln(os.Stderr, "hls-adaptor: verify-semantics: oracle limitation:", err)
		return
	}
	if ds := hls.Conformance(adapted); len(ds) > 0 {
		fmt.Fprintf(os.Stderr, "hls-adaptor: verify-semantics: conformance gate:\n%s", ds.Text())
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "hls-adaptor: verify-semantics: adapted module matches the input (and clears the conformance gate)")
}

// runReplay re-executes a repro bundle through the bisector: the recorded
// input MLIR replays through the recorded flow kind with isolation,
// verify-each, and per-pass snapshots, so a reproducing failure is pinned
// again from scratch rather than trusted from the bundle.
func runReplay(path string) int {
	b, err := resilience.ReadBundle(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hls-adaptor: replay:", err)
		return resilience.ReplayExitUnusable
	}
	if b.InputMLIR == "" {
		fmt.Fprintln(os.Stderr, "hls-adaptor: replay: bundle has no input MLIR")
		return resilience.ReplayExitUnusable
	}
	d, tgt, err := flow.BundleConfig(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hls-adaptor: replay:", err)
		return resilience.ReplayExitUnusable
	}
	if _, err := mlirparser.Parse(b.InputMLIR); err != nil {
		fmt.Fprintln(os.Stderr, "hls-adaptor: replay: bundle input does not parse:", err)
		return resilience.ReplayExitUnusable
	}
	build := func() *mlir.Module {
		m, err := mlirparser.Parse(b.InputMLIR)
		if err != nil {
			return nil
		}
		return m
	}
	fmt.Fprintf(os.Stderr, "hls-adaptor: replaying %s (%s flow, top %s)\n", b.Label, b.Flow, b.Top)
	fmt.Fprintf(os.Stderr, "hls-adaptor: recorded failure: %v\n", &b.Failure)
	// Re-arm the bundle's recorded corruption, which arms the semantic
	// oracle; Bisect itself arms it for miscompile-kind failures.
	nb := flow.Bisect(build, b.Flow, b.Label, b.Top, d, tgt,
		flow.Options{InjectMiscompile: b.Inject}, &b.Failure)
	if !nb.Reproduced {
		fmt.Fprintln(os.Stderr, "hls-adaptor: replay ran clean — failure did not reproduce")
		return resilience.ReplayExitClean
	}
	fmt.Fprintf(os.Stderr, "hls-adaptor: reproduced at %s/%s: %v\n",
		nb.Failure.Stage, nb.Failure.Pass, &nb.Failure)
	if nb.Failure.Stage != b.Failure.Stage || nb.Failure.Pass != b.Failure.Pass {
		fmt.Fprintf(os.Stderr, "hls-adaptor: note: bundle recorded %s/%s\n",
			b.Failure.Stage, b.Failure.Pass)
	}
	if nb.SnapshotIR != "" {
		fmt.Print(nb.SnapshotIR)
	}
	return resilience.ReplayExitReproduced
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hls-adaptor:", err)
	os.Exit(1)
}
