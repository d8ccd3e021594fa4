package lint

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/llvm"
)

// checkDivByZero flags integer divisions and remainders whose divisor range
// includes zero: a divisor that is always zero is an error (undefined on
// every execution), a bounded range that merely contains zero is a warning.
// Unbounded divisors stay silent — firing on "unknown" would flag every
// data-dependent division.
func checkDivByZero(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "div-by-zero"
	iv := ctx.Intervals()
	for _, b := range ctx.F.Blocks {
		if iv.Unreachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != llvm.OpSDiv && in.Op != llvm.OpSRem {
				continue
			}
			r := iv.At(b, in.Args[1])
			if c, ok := r.ConstVal(); ok && c == 0 {
				d := ctx.diag(diag.SevError, check, b, in,
					fmt.Sprintf("divisor %s is always zero", in.Args[1].Ident()),
					"division by zero is undefined; fix the divisor computation")
				d.Explanation = fmt.Sprintf("value range of %s: %s", in.Args[1].Ident(), r)
				out = append(out, d)
				continue
			}
			if r.Bounded() && r.Contains(0) {
				d := ctx.diag(diag.SevWarning, check, b, in,
					fmt.Sprintf("divisor %s ranges over %s and may be zero", in.Args[1].Ident(), r),
					"guard the division or exclude zero from the divisor's range")
				d.Explanation = fmt.Sprintf("value range of %s: %s", in.Args[1].Ident(), r)
				out = append(out, d)
			}
		}
	}
	return out
}

// checkShiftWidth flags shift amounts that can reach or exceed the shifted
// operand's bit width — undefined in LLVM and silently truncated or zeroed
// by hardware shifters. Always-out-of-range is an error; a bounded range
// that can cross the width is a warning. Unbounded amounts stay silent.
func checkShiftWidth(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "shift-width"
	iv := ctx.Intervals()
	for _, b := range ctx.F.Blocks {
		if iv.Unreachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != llvm.OpShl && in.Op != llvm.OpLShr && in.Op != llvm.OpAShr {
				continue
			}
			width := int64(64)
			if in.Ty != nil && in.Ty.IsInt() && in.Ty.Bits > 0 {
				width = int64(in.Ty.Bits)
			}
			r := iv.At(b, in.Args[1])
			if r.Empty || !r.Bounded() {
				continue
			}
			if r.Hi < 0 || r.Lo >= width {
				d := ctx.diag(diag.SevError, check, b, in,
					fmt.Sprintf("shift amount %s is always outside the %d-bit operand width", in.Args[1].Ident(), width),
					"the result is undefined on every execution")
				d.Explanation = fmt.Sprintf("value range of %s: %s; valid shift amounts are [0, %d]",
					in.Args[1].Ident(), r, width-1)
				out = append(out, d)
				continue
			}
			if r.Lo < 0 || r.Hi >= width {
				d := ctx.diag(diag.SevWarning, check, b, in,
					fmt.Sprintf("shift amount %s ranges over %s and can leave the %d-bit operand width",
						in.Args[1].Ident(), r, width),
					"clamp or mask the shift amount below the operand width")
				d.Explanation = fmt.Sprintf("value range of %s: %s; valid shift amounts are [0, %d]",
					in.Args[1].Ident(), r, width-1)
				out = append(out, d)
			}
		}
	}
	return out
}

// checkUnreachableCode flags blocks that are reachable in the CFG but that
// the conditional constant propagation proves no execution enters: every
// path to them requires a branch to go against its constant condition. The
// code is dead weight — synthesis still builds FSM states for it.
func checkUnreachableCode(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "unreachable-code"
	sccp := ctx.SCCP()
	for _, b := range ctx.F.Blocks {
		if !sccp.Unreachable(b) {
			continue
		}
		d := ctx.diag(diag.SevWarning, check, b, nil,
			fmt.Sprintf("block %%%s can never execute: every branch to it has a constant condition selecting the other arm", b.Name),
			"delete the dead block or fix the branch condition")
		for _, p := range ctx.CFG.Preds(b) {
			if c, ok := sccp.BranchConst(p); ok {
				d.Explanation = fmt.Sprintf("the branch condition in predecessor %%%s is the constant %d", p.Name, c)
				break
			}
		}
		out = append(out, d)
	}
	return out
}
