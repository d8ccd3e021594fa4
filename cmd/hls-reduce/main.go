// Command hls-reduce delta-minimizes a failing input while preserving an
// interestingness predicate: point it at a quarantine repro bundle, an
// .mlir kernel, or a .c source, and it shrinks the input as far as the
// predicate allows, re-verifying after every candidate step.
//
// Usage:
//
//	hls-reduce -bundle repro-….json [-o DIR]        # reduce a repro bundle
//	hls-reduce input.mlir -top NAME [predicates]    # reduce raw MLIR
//	hls-reduce input.c -match TEXT                  # line-ddmin a C source
//
// Bundle mode re-arms everything the bundle records (flow kind,
// directives, target, miscompile injection), reduces the input MLIR and
// the directive set, re-bisects, and writes a new bundle with Reduction
// provenance (…-reduced.json) next to the original (or into -o DIR).
//
// MLIR mode builds the predicate from flags:
//
//	-kind K           failure kind that must be preserved
//	                  (panic|error|verify|timeout|miscompile;
//	                  empty = any failure)
//	-stage S -pass P  pin the failing pipeline unit (default: any)
//	-diag-check NAME  failure message must contain this diagnostic
//	                  check name (lint/conformance rule identity)
//	-flow F           pipeline to run: adaptor (default), cxx, raw
//	-directives JSON  flow.Directives JSON to run under (default none)
//	-inject-miscompile stage/pass   arm deterministic corruption
//
// C mode compiles the source with the cxx frontend and keeps any line
// subset whose compilation error still contains -match (or still fails
// at all when -match is empty).
//
// Exit codes: 0 reduced output written, 1 the input is not interesting
// under the predicate or could not be processed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cfront"
	"repro/internal/flow"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/reduce"
	"repro/internal/resilience"
)

func main() {
	os.Exit(run())
}

func run() int {
	bundle := flag.String("bundle", "", "quarantine repro bundle to reduce")
	out := flag.String("o", "", "output path (bundle mode: directory; file modes: path, default stdout)")
	top := flag.String("top", "", "top function (default: first function in the module)")
	kind := flag.String("kind", "", "failure kind to preserve (empty = any failure)")
	stage := flag.String("stage", "", "failing stage to preserve")
	pass := flag.String("pass", "", "failing pass to preserve")
	diagCheck := flag.String("diag-check", "", "diagnostic check name the failure must mention")
	flowKind := flag.String("flow", "adaptor", "flow to run: adaptor, cxx, raw")
	directives := flag.String("directives", "", "flow.Directives JSON to run under")
	inject := flag.String("inject-miscompile", "", "arm deterministic corruption after this stage/pass")
	match := flag.String("match", "", "C mode: error text the failure must contain")
	maxIters := flag.Int("max-iters", 0, "cap on reduction passes (0 = default)")
	flag.Parse()
	// The documented spelling puts the input file first (`hls-reduce
	// in.mlir -kind …`), but the flag package stops at the first
	// positional argument — re-parse the remainder so trailing predicate
	// flags are honored rather than silently dropped.
	input := flag.Arg(0)
	if flag.NArg() > 1 {
		flag.CommandLine.Parse(flag.Args()[1:])
	}

	if *bundle != "" {
		return runBundle(*bundle, *out, *maxIters)
	}
	if input == "" {
		fmt.Fprintln(os.Stderr, "hls-reduce: need -bundle or an input file")
		return 1
	}
	src, err := os.ReadFile(input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hls-reduce:", err)
		return 1
	}
	if strings.HasSuffix(input, ".c") || strings.HasSuffix(input, ".cpp") {
		return runC(string(src), *match, *top, *out)
	}
	return runMLIR(string(src), mlirConfig{
		top: *top, kind: *kind, stage: *stage, pass: *pass,
		diagCheck: *diagCheck, flow: *flowKind, directives: *directives,
		inject: *inject, maxIters: *maxIters, out: *out,
	})
}

func runBundle(path, outDir string, maxIters int) int {
	b, err := resilience.ReadBundle(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hls-reduce:", err)
		return 1
	}
	nb, res, err := reduce.Bundle(b, reduce.Options{MaxIters: maxIters})
	if err != nil {
		if errors.Is(err, reduce.ErrNotInteresting) {
			fmt.Fprintln(os.Stderr, "hls-reduce: bundle does not reproduce its recorded failure kind; nothing to reduce")
		} else {
			fmt.Fprintln(os.Stderr, "hls-reduce:", err)
		}
		return 1
	}
	if outDir == "" {
		outDir = filepath.Dir(path)
	}
	written, err := resilience.WriteBundle(outDir, nb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hls-reduce:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "hls-reduce: %d->%d ops, %d->%d loops, %d->%d stores in %d steps (%d candidates tried)\n",
		res.Orig.Ops, res.Final.Ops, res.Orig.Loops, res.Final.Loops,
		res.Orig.Stores, res.Final.Stores, res.Steps, res.Tried)
	fmt.Println(written)
	return 0
}

type mlirConfig struct {
	top, kind, stage, pass, diagCheck, flow, directives, inject, out string
	maxIters                                                         int
}

func runMLIR(src string, c mlirConfig) int {
	topFn := c.top
	if topFn == "" {
		m, err := parser.Parse(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hls-reduce: input does not parse:", err)
			return 1
		}
		fs := m.Funcs()
		if len(fs) == 0 {
			fmt.Fprintln(os.Stderr, "hls-reduce: module has no functions")
			return 1
		}
		topFn = mlir.FuncName(fs[0])
	}
	var d flow.Directives
	if c.directives != "" {
		if err := json.Unmarshal([]byte(c.directives), &d); err != nil {
			fmt.Fprintln(os.Stderr, "hls-reduce: -directives:", err)
			return 1
		}
	}
	oracle := reduce.FlowOracle{
		Flow:       c.flow,
		Top:        topFn,
		Directives: d,
		Opts: flow.Options{
			InjectMiscompile: c.inject,
			VerifySemantics:  c.kind == string(resilience.KindMiscompile),
		},
	}
	m := reduce.Match{
		Kind:      resilience.FailureKind(c.kind),
		Stage:     c.stage,
		Pass:      c.pass,
		DiagCheck: c.diagCheck,
	}
	res, err := reduce.MLIR(src, oracle.Keep(m), reduce.Options{MaxIters: c.maxIters})
	if err != nil {
		if errors.Is(err, reduce.ErrNotInteresting) {
			fmt.Fprintln(os.Stderr, "hls-reduce: input is not interesting under the predicate; nothing to reduce")
		} else {
			fmt.Fprintln(os.Stderr, "hls-reduce:", err)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "hls-reduce: %d->%d ops, %d->%d loops in %d steps (%d candidates tried)\n",
		res.Orig.Ops, res.Final.Ops, res.Orig.Loops, res.Final.Loops, res.Steps, res.Tried)
	return emit(res.MLIR, c.out)
}

// runC line-minimizes a C source against the cxx frontend: interesting =
// compilation fails and the error mentions -match.
func runC(src, match, top, out string) int {
	keep := func(s string) bool {
		_, err := cfront.Compile(s, cfront.Options{Top: top})
		if err == nil {
			return false
		}
		return match == "" || strings.Contains(err.Error(), match)
	}
	red, steps, tried := reduce.Lines(src, keep)
	if steps == 0 && !keep(src) {
		fmt.Fprintln(os.Stderr, "hls-reduce: input is not interesting under the predicate; nothing to reduce")
		return 1
	}
	fmt.Fprintf(os.Stderr, "hls-reduce: %d steps (%d candidates tried)\n", steps, tried)
	return emit(red, out)
}

func emit(text, out string) int {
	if !strings.HasSuffix(text, "\n") {
		text += "\n"
	}
	if out == "" {
		fmt.Print(text)
		return 0
	}
	if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hls-reduce:", err)
		return 1
	}
	return 0
}
