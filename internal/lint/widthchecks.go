package lint

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/llvm"
)

// Width checks: lints driven by the bitwidth-inference engine (known bits
// fused with intervals, plus backward demanded bits). They follow the house
// rule of the other value-range checks — silent when the analysis proves
// nothing, so data-dependent code never drowns in "unknown" findings.

// typeRange returns the signed value range of an integer type in the 64-bit
// representation.
func typeRange(ty *llvm.Type) (lo, hi int64, ok bool) {
	if ty == nil || !ty.IsInt() || ty.Bits <= 0 || ty.Bits >= 64 {
		return 0, 0, false
	}
	hi = int64(1)<<uint(ty.Bits-1) - 1
	return -hi - 1, hi, true
}

// signedBounds returns the signed representation bounds of an integer type
// (the full int64 range for i64 and non-integer types).
func signedBounds(ty *llvm.Type) (lo, hi int64) {
	if l, h, ok := typeRange(ty); ok {
		return l, h
	}
	return -int64(^uint64(0)>>1) - 1, int64(^uint64(0) >> 1)
}

func satAddI(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return int64(^uint64(0) >> 1)
		}
		return -int64(^uint64(0)>>1) - 1
	}
	return s
}

func satMulI(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return int64(^uint64(0) >> 1)
		}
		return -int64(^uint64(0)>>1) - 1
	}
	return p
}

// checkOverflowPossible flags add/sub/mul whose unclamped result range, from
// the fused bitwidth ranges of the operands, leaves the declared type: the
// operation can wrap on some input the analysis could not exclude. Unbounded
// operands stay silent.
func checkOverflowPossible(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "overflow-possible"
	bw := ctx.Bitwidth()
	for _, b := range ctx.F.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpAdd && in.Op != llvm.OpSub && in.Op != llvm.OpMul {
				continue
			}
			tyLo, tyHi, narrow := typeRange(in.Ty)
			if !narrow {
				continue // i64 arithmetic wraps only at the representation edge
			}
			aLo, aHi, aOK := bw.RangeAt(b, in.Args[0])
			bLo, bHi, bOK := bw.RangeAt(b, in.Args[1])
			if !aOK || !bOK {
				continue
			}
			// Silent when an operand is unbounded within its own type: the
			// analysis proved nothing beyond the declaration.
			var lo, hi int64
			switch in.Op {
			case llvm.OpAdd:
				lo, hi = satAddI(aLo, bLo), satAddI(aHi, bHi)
			case llvm.OpSub:
				lo, hi = satAddI(aLo, -bHi), satAddI(aHi, -bLo)
			case llvm.OpMul:
				lo, hi = satMulI(aLo, bLo), satMulI(aLo, bLo)
				for _, p := range []int64{satMulI(aLo, bHi), satMulI(aHi, bLo), satMulI(aHi, bHi)} {
					if p < lo {
						lo = p
					}
					if p > hi {
						hi = p
					}
				}
			}
			if lo >= tyLo && hi <= tyHi {
				continue // proven wrap-free
			}
			if (aLo <= tyLo && aHi >= tyHi) || (bLo <= tyLo && bHi >= tyHi) {
				continue // an operand is unbounded within its type: stay silent
			}
			d := ctx.diag(diag.SevWarning, check, b, in,
				fmt.Sprintf("%s on i%d can wrap: result range [%d, %d] leaves [%d, %d]",
					in.Op, in.Ty.Bits, lo, hi, tyLo, tyHi),
				"widen the type or tighten the operand ranges with a guard the analysis can see")
			d.Explanation = fmt.Sprintf("operand ranges: %s in [%d, %d], %s in [%d, %d]; unclamped %s range [%d, %d] exceeds i%d",
				in.Args[0].Ident(), aLo, aHi, in.Args[1].Ident(), bLo, bHi, in.Op, lo, hi, in.Ty.Bits)
			out = append(out, d)
		}
	}
	return out
}

// checkTruncatingStore flags stores of a truncated value whose pre-trunc
// range does not fit the stored width: high bits the producer computed are
// silently dropped at the memory boundary.
func checkTruncatingStore(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "truncating-store"
	bw := ctx.Bitwidth()
	for _, b := range ctx.F.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpStore {
				continue
			}
			tr, ok := in.Args[0].(*llvm.Instr)
			if !ok || tr.Op != llvm.OpTrunc {
				continue
			}
			tyLo, tyHi, narrow := typeRange(tr.Ty)
			if !narrow {
				continue
			}
			lo, hi, live := bw.RangeAt(tr.Parent, tr.Args[0])
			if !live {
				continue
			}
			if srcLo, srcHi := signedBounds(tr.Args[0].Type()); lo <= srcLo && hi >= srcHi {
				continue // source unbounded within its type: nothing proven
			}
			if lo >= tyLo && hi <= tyHi {
				continue // value proven to fit the stored width
			}
			d := ctx.diag(diag.SevWarning, check, b, in,
				fmt.Sprintf("store truncates %s from [%d, %d] into i%d [%d, %d]",
					tr.Args[0].Ident(), lo, hi, tr.Ty.Bits, tyLo, tyHi),
				"store the full width or prove the value narrow with a mask or guard")
			d.Explanation = fmt.Sprintf("inferred range of %s before the trunc: [%d, %d]; i%d holds [%d, %d]",
				tr.Args[0].Ident(), lo, hi, tr.Ty.Bits, tyLo, tyHi)
			out = append(out, d)
		}
	}
	return out
}

// checkRedundantMask flags `and x, C` where the known bits of x prove every
// bit C clears is already zero: the mask is a no-op occupying LUTs.
func checkRedundantMask(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "redundant-mask"
	bw := ctx.Bitwidth()
	for _, b := range ctx.F.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpAnd || len(in.Args) != 2 {
				continue
			}
			for i := 0; i < 2; i++ {
				c, ok := in.Args[i].(*llvm.ConstInt)
				if !ok {
					continue
				}
				x := in.Args[1-i]
				kx := bw.KnownAt(b, x)
				// Bits the mask would clear, within the operand's width.
				cleared := ^uint64(c.Val)
				if ty := in.Ty; ty != nil && ty.IsInt() && ty.Bits > 0 && ty.Bits < 64 {
					cleared &= uint64(1)<<uint(ty.Bits) - 1
				}
				if cleared == 0 || cleared&^kx.Zero != 0 {
					continue // mask is all-ones, or some cleared bit might be set
				}
				d := ctx.diag(diag.SevInfo, check, b, in,
					fmt.Sprintf("mask %s & %d is a no-op: every cleared bit of %s is already known zero",
						x.Ident(), c.Val, x.Ident()),
					"delete the and; it costs LUTs without changing any value")
				d.Explanation = fmt.Sprintf("known bits of %s: %s; mask clears %#x, all known zero",
					x.Ident(), kx, cleared)
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// checkRedundantExt flags zext/sext whose extended bits no consumer ever
// observes: every demanded bit of the result lies inside the source width,
// so the extension is pure wiring that a narrower datapath would avoid.
func checkRedundantExt(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "redundant-ext"
	bw := ctx.Bitwidth()
	for _, b := range ctx.F.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpZExt && in.Op != llvm.OpSExt {
				continue
			}
			srcTy := in.Args[0].Type()
			if srcTy == nil || !srcTy.IsInt() || srcTy.Bits <= 0 || srcTy.Bits >= 64 {
				continue
			}
			d := bw.Demanded(in)
			if d == 0 {
				continue // dead ext: dead-code findings belong to other checks
			}
			srcMask := uint64(1)<<uint(srcTy.Bits) - 1
			if d&^srcMask != 0 {
				continue // some consumer reads the extended bits
			}
			dg := ctx.diag(diag.SevInfo, check, b, in,
				fmt.Sprintf("%s of %s is redundant: no consumer observes bits above the source's %d",
					in.Op, in.Args[0].Ident(), srcTy.Bits),
				"use the narrow value directly; the extension only feeds truncating consumers")
			dg.Explanation = fmt.Sprintf("demanded bits of %s: %#x, all inside the %d-bit source width",
				in.Name, d, srcTy.Bits)
			out = append(out, dg)
		}
	}
	return out
}
