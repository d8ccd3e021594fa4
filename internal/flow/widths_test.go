package flow

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitwidth"
	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/polybench"
)

// moduleWidths runs the bitwidth analysis over every defined function of lm
// and returns the forward-sound value width of each integer-typed
// instruction result.
func moduleWidths(lm *llvm.Module) map[*llvm.Instr]bitwidth.Width {
	widths := map[*llvm.Instr]bitwidth.Width{}
	for _, f := range lm.Funcs {
		if f.IsDecl || len(f.Blocks) == 0 {
			continue
		}
		a := hls.Analyze(f).Bitwidth()
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Ty != nil && in.Ty.IsInt() {
					widths[in] = a.ValueWidth(in)
				}
			}
		}
	}
	return widths
}

// observeContainment executes lm's top function with an interpreter probe
// asserting that every dynamic integer result stays inside its statically
// inferred width. This is the soundness gate of the whole width oracle: the
// cost model and the lints are only as trustworthy as this containment.
func observeContainment(t *testing.T, flowName, kernel string, lm *llvm.Module, mems []*interp.Mem) {
	t.Helper()
	widths := moduleWidths(lm)
	violations := 0
	machine := interp.NewMachine(lm)
	machine.Observe = func(in *llvm.Instr, v int64) {
		w, ok := widths[in]
		if !ok || w.Contains(v) {
			return
		}
		violations++
		if violations <= 3 {
			t.Errorf("%s/%s: %%%s@%%%s = %d escapes inferred width %s",
				kernel, flowName, in.Name, in.Parent.Name, v, w)
		}
	}
	args := make([]interp.Arg, len(mems))
	for i := range mems {
		args[i] = interp.PtrArg(mems[i], 0)
	}
	if _, _, err := machine.Run(context.Background(), kernel, args...); err != nil {
		t.Fatalf("%s/%s: execute: %v", kernel, flowName, err)
	}
	if violations > 3 {
		t.Errorf("%s/%s: %d containment violations total", kernel, flowName, violations)
	}
}

// TestBitwidthContainmentAllKernelsBothFlows is the dynamic soundness gate:
// every kernel, both flows, every executed integer instruction checked
// against the width the analysis claims is sufficient.
func TestBitwidthContainmentAllKernelsBothFlows(t *testing.T) {
	tgt := hls.DefaultTarget()
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			ares, err := AdaptorFlow(k.Build(s), k.Name, Directives{}, tgt)
			if err != nil {
				t.Fatalf("adaptor flow: %v", err)
			}
			bufs := k.NewBuffers(s)
			polybench.Init(bufs)
			observeContainment(t, "adaptor", k.Name, ares.LLVM, memsFrom(bufs))

			cres, err := CxxFlow(k.Build(s), k.Name, Directives{}, tgt)
			if err != nil {
				t.Fatalf("cxx flow: %v", err)
			}
			bufs2 := k.NewBuffers(s)
			polybench.Init(bufs2)
			observeContainment(t, "cxx", k.Name, cres.LLVM, memsFrom(bufs2))
		})
	}
}

// widthsGoldenReport renders the 18-kernel width summary as stable text:
// kernel order is the corpus order; within a kernel the renderer's own
// deterministic function/value order applies.
func widthsGoldenReport(t *testing.T) string {
	t.Helper()
	tgt := hls.DefaultTarget()
	var sb strings.Builder
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		lm, err := PrepareLLVM(k.Build(s), k.Name, Directives{Pipeline: true, II: 1})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		fmt.Fprintf(&sb, "== %s\n", k.Name)
		lint.WriteWidthsText(&sb, lint.WidthSummary(lm, tgt))
	}
	return sb.String()
}

// TestWidthsGoldenAllKernels locks the complete 18-kernel width report —
// known bits, fused ranges, demanded-narrowed hardware widths, and the
// declared-vs-inferred area deltas — to a checked-in golden. Any transfer
// change shows up as a diff here and must be a deliberate regeneration
// (UPDATE_WIDTHS_GOLDEN=1), never an accident: the inferred cost model
// prices synthesis off these same widths.
func TestWidthsGoldenAllKernels(t *testing.T) {
	got := widthsGoldenReport(t)
	golden := filepath.Join("testdata", "widths_golden.txt")
	if os.Getenv("UPDATE_WIDTHS_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_WIDTHS_GOLDEN=1 go test -run TestWidthsGoldenAllKernels ./internal/flow/): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("width report drifted from the golden at line %d:\n  got:  %s\n  want: %s\n(regenerate deliberately with UPDATE_WIDTHS_GOLDEN=1)", i+1, g, w)
		}
	}
	t.Fatal("width report drifted from the golden (line lengths differ)")
}

// TestInferredWidthsSaveAreaOnMostKernels asserts the analysis pays its way:
// under the inferred cost model the datapath gets cheaper (never more
// expensive) on the pipelined form of at least 12 of the 18 kernels.
func TestInferredWidthsSaveAreaOnMostKernels(t *testing.T) {
	tgt := hls.DefaultTarget()
	saved := 0
	var savers []string
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		lm, err := PrepareLLVM(k.Build(s), k.Name, Directives{Pipeline: true, II: 1})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		lut, ff, dsp := 0, 0, 0
		for _, fw := range lint.WidthSummary(lm, tgt) {
			lut += fw.SavedLUT
			ff += fw.SavedFF
			dsp += fw.SavedDSP
		}
		// Narrowing must never make the datapath dearer.
		if lut < 0 || ff < 0 || dsp < 0 {
			t.Errorf("%s: inferred model costs more than declared (lut=%d ff=%d dsp=%d)",
				k.Name, lut, ff, dsp)
		}
		if lut+ff > 0 {
			saved++
			savers = append(savers, k.Name)
		}
	}
	if saved < 12 {
		t.Errorf("inferred widths save LUT/FF on only %d of 18 kernels (want >= 12): %v",
			saved, savers)
	}
}

// TestInferredModelSemanticsUnchanged runs the full adaptor flow under the
// inferred cost model with the differential oracle armed: re-pricing the
// datapath must never change what the IR computes, on any kernel.
func TestInferredModelSemanticsUnchanged(t *testing.T) {
	tgt := hls.DefaultTarget()
	tgt.CostModel = hls.CostInferred
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			want := k.NewBuffers(s)
			polybench.Init(want)
			k.Ref(s, want)

			res, err := AdaptorFlowWith(k.Build(s), k.Name, Directives{}, tgt,
				Options{VerifySemantics: true})
			if err != nil {
				t.Fatalf("adaptor flow (inferred model): %v", err)
			}
			bufs := k.NewBuffers(s)
			polybench.Init(bufs)
			mems := memsFrom(bufs)
			if err := Execute(res.LLVM, k.Name, mems); err != nil {
				t.Fatalf("execute: %v", err)
			}
			compare(t, "adaptor-inferred", k.Name, readBack(mems), want)
		})
	}
}
