package hls

import (
	"repro/internal/llvm"
)

// Width-exact operator costing: under Target.CostModel == CostInferred the
// integer datapath is priced at the widths the bitwidth analysis proves
// sufficient (bitwidth.Analysis.OpWidth, which synthesis writes into its
// per-instruction cost table) instead of the declared type widths. The
// formulas are tuned so that an operator at its full declared width (32-bit
// ops, i1 compares) prices exactly as the declared model does — the
// inferred model only ever moves costs by narrowing.

// CostAt returns the operator cost of in built width bits wide, as the
// inferred cost model prices the width bitwidth.Analysis.OpWidth proves; a
// nonpositive width is the declared one. The declared model, and the
// inferred model for an operator it does not narrow, ignore width.
func (t Target) CostAt(in *llvm.Instr, width int) OpCost { return t.costOf(in, false, width) }

// narrowable reports whether the inferred model prices in by width: the
// integer ops the width analysis can narrow.
func narrowable(in *llvm.Instr) bool {
	switch in.Op {
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul,
		llvm.OpAnd, llvm.OpOr, llvm.OpXor,
		llvm.OpShl, llvm.OpLShr, llvm.OpAShr,
		llvm.OpICmp, llvm.OpSelect:
		return in.Ty == nil || in.Ty.IsInt() // float selects keep declared pricing
	}
	return false
}

// opWidth returns the width in's operator is built at: width when
// positive, else the declared width (operand width for comparisons — the
// comparator's size, not its i1 result).
func opWidth(in *llvm.Instr, width int) int {
	if width > 0 {
		return width
	}
	if in.Op == llvm.OpICmp && len(in.Args) > 0 {
		return intWidthLUT(in.Args[0].Type())
	}
	return intWidthLUT(in.Ty)
}

// inferredCostOf prices the narrowable integer ops at width; ok=false
// defers every other opcode to the declared model.
func (t Target) inferredCostOf(in *llvm.Instr, addrOnly bool, width int) (OpCost, bool) {
	if !narrowable(in) {
		return OpCost{}, false
	}
	w := lutWidth(opWidth(in, width))
	if addrOnly {
		// Folded into address generation: LUT-only, but still width-priced.
		return OpCost{Latency: 0, Delay: 1.8, LUT: w}, true
	}
	switch in.Op {
	case llvm.OpAdd, llvm.OpSub:
		// Carry chain: delay grows with width; 32 bits reproduces 1.8ns.
		return OpCost{Delay: 0.9 + 0.028125*float64(w), LUT: w}, true
	case llvm.OpAnd, llvm.OpOr, llvm.OpXor, llvm.OpShl, llvm.OpLShr, llvm.OpAShr:
		// Bitwise/shift network: 32 bits reproduces 0.9ns.
		return OpCost{Delay: 0.45 + 0.0140625*float64(w), LUT: w}, true
	case llvm.OpMul:
		// DSP-tier model: narrow products fit LUT fabric, mid widths take
		// one to three DSP slices, and only >32 bits needs the 8-DSP
		// compose. The 26..32 tier matches the declared 32-bit cost.
		switch {
		case w <= 10:
			return OpCost{Latency: 1, Delay: 3.5, LUT: w * w, FF: 2 * w}, true
		case w <= 18:
			return OpCost{Latency: 2, Delay: 4.0, DSP: 1, LUT: 50, FF: 100}, true
		case w <= 25:
			return OpCost{Latency: 2, Delay: 4.0, DSP: 2, LUT: 80, FF: 150}, true
		case w <= 32:
			return OpCost{Latency: 2, Delay: 4.0, DSP: 3, LUT: 100, FF: 200}, true
		}
		return OpCost{Latency: 3, Delay: 4.5, DSP: 8, LUT: 200, FF: 400}, true
	case llvm.OpICmp:
		// Comparator tree over the operand width; 32 bits reproduces the
		// declared 1.5ns / 40 LUT.
		return OpCost{Delay: 0.9 + 0.01875*float64(w), LUT: w + 8}, true
	case llvm.OpSelect:
		// One mux bit per data bit; 32 bits reproduces 35 LUT.
		return OpCost{Delay: 1.2, LUT: w + 3}, true
	}
	return OpCost{}, false
}
