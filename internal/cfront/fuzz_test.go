package cfront_test

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm/parser"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
)

// FuzzCFrontCompile drives Compile with arbitrary source. Rejection is
// fine; a panic is the bug class under test. A module Compile returns must
// verify, and its printed text must parse back to a module that prints
// identically: the incremental store replays the C frontend's output by
// exactly that round trip.
func FuzzCFrontCompile(f *testing.F) {
	for _, src := range emittedSeeds(f) {
		f.Add(src)
	}
	for _, src := range frontendTestSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := cfront.Compile(src, cfront.Options{Top: "k"})
		if err != nil {
			return
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("compiled module does not verify: %v\n--- source\n%s", err, src)
		}
		text := m.Print()
		back, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n--- printed\n%s\n--- source\n%s", err, text, src)
		}
		if again := back.Print(); again != text {
			t.Fatalf("printed module prints differently after parsing:\n--- first\n%s\n--- second\n%s", text, again)
		}
	})
}

// emittedSeeds returns the C the C++ flow emits for every polybench kernel
// at MINI, plain and under a directive-rich configuration (pipeline,
// unroll pragma, cyclic partition and flatten).
func emittedSeeds(f *testing.F) []string {
	f.Helper()
	var seeds []string
	for _, d := range []flow.Directives{{}, {Pipeline: true, II: 2, Unroll: 2, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2}}} {
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				f.Fatal(err)
			}
			res, err := flow.CxxFlow(k.Build(s), k.Name, d, hls.DefaultTarget())
			if err != nil {
				f.Fatalf("%s: %v", k.Name, err)
			}
			seeds = append(seeds, res.CSource)
		}
	}
	return seeds
}

// frontendTestSources returns every raw string literal in the C
// frontend's own tests, those it rejects included.
func frontendTestSources(f *testing.F) []string {
	f.Helper()
	var srcs []string
	for _, file := range []string{"cfront_test.go", "lang_test.go"} {
		af, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(af, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					f.Fatal(err)
				}
				srcs = append(srcs, src)
			}
			return true
		})
	}
	return srcs
}
