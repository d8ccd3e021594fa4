package hls

import (
	"strings"
	"testing"

	"repro/internal/llvm"
)

// TestLutWidth pins the width-grid rounding, including the edge cases that
// used to leak through raw type bits (i1 and non-power-of-two widths).
func TestLutWidth(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 32}, {0, 32}, // unknown widths price as the 32-bit default
		{1, 1},                         // a lone flag bit stays one LUT
		{2, 2}, {3, 4}, {5, 6}, {7, 8}, // odd widths round up to even
		{8, 8}, {9, 10}, {31, 32}, {32, 32},
		{33, 34}, {63, 64}, {64, 64},
		{65, 64}, {128, 64}, // clamp at the 64-bit datapath
	}
	for _, c := range cases {
		if got := lutWidth(c.in); got != c.want {
			t.Errorf("lutWidth(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// The declared-model widths present in the kernels are fixed points.
	for _, w := range []int{1, 8, 32, 64} {
		if got := lutWidth(w); got != w {
			t.Errorf("lutWidth(%d) = %d, must be a fixed point", w, got)
		}
	}
}

// TestCanonCostModel keeps the declared-model cache key byte-identical to
// the historical form and gives the inferred model its own key.
func TestCanonCostModel(t *testing.T) {
	tgt := DefaultTarget()
	if got := tgt.Canon(); strings.Contains(got, "costmodel") {
		t.Errorf("declared Canon %q must not mention costmodel", got)
	}
	tgt.CostModel = CostInferred
	if got := tgt.Canon(); !strings.HasSuffix(got, "|costmodel=inferred") {
		t.Errorf("inferred Canon %q must end with |costmodel=inferred", got)
	}
}

// TestInferredCostCoincidesAtDeclaredWidth: with no width map resolved, the
// inferred formulas reproduce the declared costs for the kernel-typical
// 32-bit operators — the models only diverge when the analysis narrows.
func TestInferredCostCoincidesAtDeclaredWidth(t *testing.T) {
	i32 := llvm.I32()
	decl := DefaultTarget()
	inf := DefaultTarget()
	inf.CostModel = CostInferred
	x := llvm.CI(i32, 1)
	ops := []*llvm.Instr{
		{Op: llvm.OpAdd, Ty: i32, Args: []llvm.Value{x, x}},
		{Op: llvm.OpSub, Ty: i32, Args: []llvm.Value{x, x}},
		{Op: llvm.OpMul, Ty: i32, Args: []llvm.Value{x, x}},
		{Op: llvm.OpAnd, Ty: i32, Args: []llvm.Value{x, x}},
		{Op: llvm.OpXor, Ty: i32, Args: []llvm.Value{x, x}},
		{Op: llvm.OpShl, Ty: i32, Args: []llvm.Value{x, x}},
		{Op: llvm.OpICmp, Ty: llvm.IntT(1), Pred: "slt", Args: []llvm.Value{x, x}},
		{Op: llvm.OpSelect, Ty: i32, Args: []llvm.Value{x, x, x}},
	}
	for _, in := range ops {
		d, i := decl.CostOf(in), inf.CostOf(in)
		if d != i {
			t.Errorf("%s at declared width: declared %+v != inferred %+v", in.Op, d, i)
		}
	}
}

// TestInferredCostNarrows: an explicit operator width shrinks LUT/DSP/delay
// under the inferred model, and the declared model ignores it entirely.
func TestInferredCostNarrows(t *testing.T) {
	i32 := llvm.I32()
	x := llvm.CI(i32, 1)
	add := &llvm.Instr{Op: llvm.OpAdd, Ty: i32, Args: []llvm.Value{x, x}}
	mul := &llvm.Instr{Op: llvm.OpMul, Ty: i32, Args: []llvm.Value{x, x}}

	decl := DefaultTarget()
	if got := decl.CostAt(add, 8); got != decl.CostOf(add) {
		t.Errorf("declared model priced a width: add %+v, want %+v", got, decl.CostOf(add))
	}

	inf := DefaultTarget()
	inf.CostModel = CostInferred
	addC := inf.CostAt(add, 8)
	if addC.LUT != 8 {
		t.Errorf("narrowed add LUT = %d, want 8", addC.LUT)
	}
	if full := DefaultTarget().CostOf(add); addC.Delay >= full.Delay {
		t.Errorf("narrowed add delay %.3f not below full-width %.3f", addC.Delay, full.Delay)
	}
	if got := inf.CostAt(add, 0); got != inf.CostOf(add) {
		t.Errorf("width 0 must price the declared width: %+v, want %+v", got, inf.CostOf(add))
	}
	mulC := inf.CostAt(mul, 9)
	if mulC.DSP != 0 {
		t.Errorf("10-bit-tier mul DSP = %d, want 0 (LUT fabric)", mulC.DSP)
	}
	if mulC.LUT != 100 { // lutWidth(9) = 10, 10*10
		t.Errorf("narrow mul LUT = %d, want 100", mulC.LUT)
	}
}
