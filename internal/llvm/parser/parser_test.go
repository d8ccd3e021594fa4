package parser_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/llvm/parser"
	"repro/internal/polybench"
)

// roundTrip asserts print(parse(print(m))) == print(m).
func roundTrip(t *testing.T, m *llvm.Module) *llvm.Module {
	t.Helper()
	first := m.Print()
	m2, err := parser.Parse(first)
	if err != nil {
		t.Fatalf("parse failed: %v\ninput:\n%s", err, first)
	}
	second := m2.Print()
	if first != second {
		t.Fatalf("round trip unstable.\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	return m2
}

func TestRoundTripModernTranslatedIR(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	_, lm, err := flow.RawFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, lm)
	if m2.Flavor != llvm.FlavorModern {
		t.Error("opaque module should parse as modern flavor")
	}
	// Loop metadata must survive.
	found := false
	for _, f := range m2.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Loop != nil && in.Loop.Pipeline {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("loop metadata lost in round trip")
	}
}

func TestRoundTripAdaptedIR(t *testing.T) {
	for _, name := range []string{"gemm", "atax", "jacobi2d", "k2mm", "trmm"} {
		k := polybench.Get(name)
		s, _ := k.SizeOf("MINI")
		res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1},
			hls.DefaultTarget())
		if err != nil {
			t.Fatal(err)
		}
		m2 := roundTrip(t, res.LLVM)
		if m2.Flavor != llvm.FlavorHLS {
			t.Errorf("%s: typed-pointer module should parse as HLS flavor", name)
		}
		// The reparsed module must still pass the gate and synthesize to the
		// same latency.
		rep2, err := hls.Synthesize(m2, name, hls.DefaultTarget())
		if err != nil {
			t.Fatalf("%s: reparsed module failed synthesis: %v", name, err)
		}
		if rep2.LatencyCycles != res.Report.LatencyCycles {
			t.Errorf("%s: latency changed across round trip: %d vs %d",
				name, res.Report.LatencyCycles, rep2.LatencyCycles)
		}
	}
}

// TestParsedModuleSharedReadOnly synthesizes, verifies, keys and compiles
// one parsed module from several goroutines at once, as warm runs do with
// a module from the flow's final-module cache. The parser leaves the
// module numbered and Renumber stores only numbers that differ, so under
// the race detector this shows that analyses, program keys and the
// interpreter's compiler only read such a module.
func TestParsedModuleSharedReadOnly(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1},
		hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	m, err := parser.Parse(res.LLVM.Print())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Verify(); err != nil {
				t.Error(err)
			}
			if _, err := hls.Synthesize(m, k.Name, hls.DefaultTarget()); err != nil {
				t.Error(err)
			}
			if _, err := interp.ProgramKey(m, k.Name); err != nil {
				t.Error(err)
			}
			p, err := interp.Compile(m, k.Name)
			if err != nil {
				t.Error(err)
				return
			}
			p.Release()
		}()
	}
	wg.Wait()
}

func TestParsedModuleExecutes(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, res.LLVM)

	want := k.NewBuffers(s)
	polybench.Init(want)
	k.Ref(s, want)
	bufs := k.NewBuffers(s)
	polybench.Init(bufs)
	mems := make([]*interp.Mem, len(bufs))
	for i, b := range bufs {
		mems[i] = interp.NewMem(int64(len(b)) * 4)
		for j, v := range b {
			mems[i].SetFloat32(j, v)
		}
	}
	if err := flow.Execute(m2, k.Name, mems); err != nil {
		t.Fatal(err)
	}
	got := mems[2].Float32Slice()
	for i := range got {
		if got[i] != want[2][i] {
			t.Fatalf("parsed module computed wrong value at %d: %g vs %g", i, got[i], want[2][i])
		}
	}
}

func TestParseAttrsSurvive(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, res.LLVM)
	f := m2.FindFunc("gemm")
	if f.Attrs["hls.top"] != "1" {
		t.Errorf("function attributes lost: %v", f.Attrs)
	}
	// Param interface annotations survive as attrs.
	joined := strings.Join(f.Params[0].Attrs, " ")
	if !strings.Contains(joined, "ap_memory") {
		t.Errorf("param attributes lost: %v", f.Params[0].Attrs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"garbage", "hello world"},
		{"bad type", "define banana @f() {\nentry:\n  ret void\n}"},
		{"missing block", "define void @f() {\n  ret void\n}"},
		{"undefined value", "define void @f() {\nentry:\n  %x = add i32 %y, 1\n  ret void\n}"},
		{"unterminated", "define void @f() {\nentry:\n"},
		{"branch to undefined label", "define void @f() {\nentry:\n  br label %nowhere\n}\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parser.Parse(c.src); err == nil {
				t.Errorf("expected error for %s", c.name)
			}
		})
	}
}

func TestParseHandWritten(t *testing.T) {
	src := `
; hand-written kernel
define void @saxpy([16 x float]* %x, [16 x float]* %y) #0 {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cond = icmp slt i64 %iv, 16
  br i1 %cond, label %body, label %exit
body:
  %px = getelementptr inbounds [16 x float], [16 x float]* %x, i64 0, i64 %iv
  %vx = load float, float* %px
  %scaled = fmul float %vx, 2.000000e+00
  %py = getelementptr inbounds [16 x float], [16 x float]* %y, i64 0, i64 %iv
  %vy = load float, float* %py
  %sum = fadd float %scaled, %vy
  store float %sum, float* %py
  %next = add i64 %iv, 1
  br label %header, !llvm.loop !0
exit:
  ret void
}

attributes #0 = { "hls.top"="1" }
!0 = distinct !{!0, !"llvm.loop.pipeline.enable", i1 true, !"llvm.loop.pipeline.ii", i32 1}
`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if vs := hls.Check(m); len(vs) != 0 {
		t.Fatalf("hand-written kernel should be readable: %v", vs)
	}
	rep, err := hls.Synthesize(m, "saxpy", hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || !rep.Loops[0].Pipelined {
		t.Errorf("saxpy loop should be pipelined: %s", rep)
	}
	if rep.Loops[0].Trip != 16 {
		t.Errorf("trip = %d, want 16", rep.Loops[0].Trip)
	}
	// Execute it too.
	x := interp.NewMem(64)
	y := interp.NewMem(64)
	for i := 0; i < 16; i++ {
		x.SetFloat32(i, float32(i))
		y.SetFloat32(i, 1)
	}
	machine := interp.NewMachine(m)
	if _, _, err := machine.Run(context.Background(), "saxpy", interp.PtrArg(x, 0), interp.PtrArg(y, 0)); err != nil {
		t.Fatal(err)
	}
	got := y.Float32Slice()
	for i := 0; i < 16; i++ {
		if got[i] != float32(2*i)+1 {
			t.Errorf("saxpy[%d] = %g, want %d", i, got[i], 2*i+1)
		}
	}
}

// Guard against misuse of the adaptor on already-adapted IR: adapting twice
// must be harmless (idempotent on the fix counts that matter).
func TestAdaptParsedIdempotent(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, res.LLVM)
	rep, err := core.Adapt(m2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountByKind(core.FixDescriptor) != 0 {
		t.Error("re-adapting should find no descriptor groups")
	}
	if rep.CountByKind(core.FixMalloc) != 0 {
		t.Error("re-adapting should find no mallocs")
	}
}
