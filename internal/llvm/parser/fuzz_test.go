package parser_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/llvm/analysis"
	"repro/internal/llvm/parser"
	"repro/internal/llvm/passes"
	"repro/internal/polybench"
)

// fuzzSeeds covers the textual surface the parser accepts: every instruction
// family, both interface attribute spellings, loop metadata, declarations,
// and a few near-miss inputs that must be rejected without panicking.
var fuzzSeeds = []string{
	"",
	"define void @f() {\nentry:\n  ret void\n}\n",
	`define void @k([16 x float]* "hls.interface=ap_memory" %a) {
entry:
  br label %h
h:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %iv, 16
  br i1 %c, label %body, label %exit
body:
  %p = getelementptr inbounds [16 x float], [16 x float]* %a, i64 0, i64 %iv
  %v = load float, float* %p
  %d = fmul float %v, 2.0
  store float %d, float* %p
  %next = add i64 %iv, 1
  br label %h, !llvm.loop !0
exit:
  ret void
}
`,
	`define i64 @g(i64 %x) {
entry:
  %a = alloca [4 x i64]
  %s = sub i64 %x, 3
  %m = mul i64 %s, %s
  %q = sdiv i64 %m, 7
  %r = srem i64 %q, 5
  %an = and i64 %r, 15
  %o = or i64 %an, 1
  %xo = xor i64 %o, 2
  %sh = shl i64 %xo, 2
  %ar = ashr i64 %sh, 1
  %t = trunc i64 %ar to i32
  %se = sext i32 %t to i64
  %ze = zext i32 %t to i64
  %c = icmp eq i64 %se, %ze
  %sel = select i1 %c, i64 %se, i64 %ze
  ret i64 %sel
}
`,
	"declare void @ext(float*)\n",
	"define void @h() {\nentry:\n  call void @ext(float* null)\n  ret void\n}\ndeclare void @ext(float*)\n",
	"define void @bad() {\n", // truncated: must error, not panic
	"define void @x() {}\n",
	"%\x00",
	"define void @u() {\ne:\n  unreachable\n}\n",
}

// FuzzParseRoundTrip drives Parse with arbitrary input. Inputs the parser
// accepts must verify, print, and re-parse to a module that prints
// identically (print is the parser's inverse on its own output); inputs it
// rejects must produce an error, never a panic. An accepted module then
// goes through the CFG, dominator, loop and induction-variable analyses,
// the cleanup pipeline on each defined function, and the verifier, none of
// which may panic: their tables are indexed by block and instruction
// numbers, and a stale number would index out of range.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range kernelSeeds(f) {
		f.Add(s)
	}
	for _, s := range kgenSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := parser.Parse(src)
		if err != nil {
			return // rejection is fine; panics are the bug class under test
		}
		text := m.Print()
		m2, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not re-parse: %v\n--- printed\n%s\n--- input\n%q", err, text, src)
		}
		if text2 := m2.Print(); text2 != text {
			t.Fatalf("print is not a fixpoint after one round trip:\n--- first\n%s\n--- second\n%s", text, text2)
		}
		for _, fn := range m.Funcs {
			if fn.IsDecl {
				continue
			}
			cfg := analysis.NewCFG(fn)
			for _, l := range analysis.FindLoops(cfg, analysis.NewDomTree(cfg)).Loops {
				analysis.InductionVar(l)
			}
			passes.Cleanup(fn)
		}
		_ = m.Verify()
	})
}

// kernelSeeds runs every polybench kernel through the adaptor flow and
// seeds the corpus with the post-adaptor module text — the richest real IR
// this repository produces, so the fuzzer mutates from the shapes the
// parser must actually survive rather than from toy snippets only.
func kernelSeeds(f *testing.F) []string {
	f.Helper()
	var seeds []string
	tgt := hls.DefaultTarget()
	d := flow.Directives{Pipeline: true, II: 1}
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			f.Fatal(err)
		}
		res, err := flow.AdaptorFlow(k.Build(s), k.Name, d, tgt)
		if err != nil {
			f.Fatalf("%s: %v", k.Name, err)
		}
		seeds = append(seeds, res.LLVM.Print())
	}
	return seeds
}

// kgenSeeds lowers the shared checked-in kgen corpus through the adaptor
// flow, each kernel under its own sampled directive set, and seeds the
// fuzzer with the resulting LLVM text — generator-minimal loop nests with
// directive-shaped metadata, complementing the polybench shapes.
func kgenSeeds(f *testing.F) []string {
	f.Helper()
	var seeds []string
	tgt := hls.DefaultTarget()
	for _, k := range kgen.CorpusKernels() {
		res, err := flow.AdaptorFlow(k.Build(), k.Name, k.Directives, tgt)
		if err != nil {
			f.Fatalf("%s: %v", k.Name, err)
		}
		seeds = append(seeds, res.LLVM.Print())
	}
	return seeds
}
