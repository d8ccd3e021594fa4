package absint

import (
	"repro/internal/llvm"
)

// intervalDomain is the value-range lattice.
type intervalDomain struct{}

func (intervalDomain) Top(ty *llvm.Type) Interval         { return typeTop(ty) }
func (intervalDomain) Const(c int64) Interval             { return Const(c) }
func (intervalDomain) Join(a, b Interval) Interval        { return a.Union(b) }
func (intervalDomain) Widen(prev, next Interval) Interval { return next.WidenFrom(prev) }
func (intervalDomain) Equal(a, b Interval) bool           { return a.Equal(b) }

func (intervalDomain) Decides(iv Interval) (nonzero, ok bool) {
	v, ok := iv.ConstVal()
	return v != 0, ok
}

// Transfer computes one integer instruction's interval under env.
func (intervalDomain) Transfer(env *Env[Interval], in *llvm.Instr) Interval {
	arg := func(i int) Interval { return env.Get(in.Args[i]) }
	switch in.Op {
	case llvm.OpAdd:
		return clampTy(arg(0).Add(arg(1)), in.Ty)
	case llvm.OpSub:
		return clampTy(arg(0).Sub(arg(1)), in.Ty)
	case llvm.OpMul:
		return clampTy(arg(0).Mul(arg(1)), in.Ty)
	case llvm.OpSDiv:
		return clampTy(arg(0).Div(arg(1)), in.Ty)
	case llvm.OpSRem:
		return clampTy(arg(0).Rem(arg(1)), in.Ty)
	case llvm.OpAnd:
		return clampTy(andInterval(arg(0), arg(1)), in.Ty)
	case llvm.OpOr:
		return clampTy(orInterval(arg(0), arg(1)), in.Ty)
	case llvm.OpXor:
		return clampTy(xorInterval(arg(0), arg(1)), in.Ty)
	case llvm.OpShl:
		return clampTy(shlInterval(arg(0), arg(1)), in.Ty)
	case llvm.OpLShr:
		return clampTy(lshrInterval(arg(0), arg(1), in.Ty), in.Ty)
	case llvm.OpAShr:
		return clampTy(ashrInterval(arg(0), arg(1)), in.Ty)
	case llvm.OpSExt:
		return arg(0)
	case llvm.OpZExt:
		return zextInterval(arg(0), in.Args[0].Type())
	case llvm.OpTrunc:
		a := arg(0)
		if tt := typeTop(in.Ty); a.Intersect(tt).Equal(a) {
			return a // value provably fits the narrower type
		}
		return typeTop(in.Ty)
	case llvm.OpICmp:
		return icmpInterval(arg(0), arg(1), in.Pred)
	case llvm.OpSelect:
		c := arg(0)
		if v, ok := c.ConstVal(); ok {
			if v != 0 {
				return arg(1)
			}
			return arg(2)
		}
		return arg(1).Union(arg(2))
	}
	// Loads, calls, extractvalue, ptrtoint, ...: unknown.
	return typeTop(in.Ty)
}

// clampTy bounds a computed interval by its result type's representable
// range (a value of iN can never leave iN's range, whatever the arithmetic
// suggested).
func clampTy(iv Interval, ty *llvm.Type) Interval {
	if iv.Empty {
		return iv
	}
	return iv.Intersect(typeTop(ty))
}

func andInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	// x & (-2^k) clears the low k bits: exactly floor(x / 2^k) * 2^k, a
	// monotone map, so the range maps endpoint-to-endpoint. This is the
	// alignment-mask idiom (x & -8) that previously went to top.
	if c, ok := b.ConstVal(); ok {
		if k, isAlign := negPow2Exp(c); isAlign && a.Bounded() {
			return Range(alignDown(a.Lo, k), alignDown(a.Hi, k))
		}
	}
	if c, ok := a.ConstVal(); ok {
		if k, isAlign := negPow2Exp(c); isAlign && b.Bounded() {
			return Range(alignDown(b.Lo, k), alignDown(b.Hi, k))
		}
	}
	// x & y with either operand in [0, m] yields [0, m] when the other is
	// also nonnegative; with a nonnegative constant-ish mask it is [0, mask].
	if a.Lo >= 0 && b.Lo >= 0 {
		return Range(0, minI64(a.Hi, b.Hi))
	}
	if a.Lo >= 0 {
		return Range(0, a.Hi)
	}
	if b.Lo >= 0 {
		return Range(0, b.Hi)
	}
	// Both sides may be negative. Pointwise, x & y >= min(x,0) + min(y,0)
	// (equality of x&y + x|y = x+y with x|y <= -1 for two negatives) and
	// x & y <= max(x, y), which bounds the hull by the operand corners.
	return Range(satAdd(minI64(a.Lo, 0), minI64(b.Lo, 0)), maxI64(a.Hi, b.Hi))
}

// negPow2Exp reports whether c == -2^k for some 0 <= k < 63 (a low-bit
// clearing mask in two's complement) and returns k.
func negPow2Exp(c int64) (int, bool) {
	if c >= 0 || c == negInf {
		return 0, false
	}
	u := uint64(-c)
	if u&(u-1) != 0 {
		return 0, false
	}
	k := 0
	for u > 1 {
		u >>= 1
		k++
	}
	return k, true
}

// alignDown rounds x down to a multiple of 2^k (the exact effect of
// x & -2^k in two's complement).
func alignDown(x int64, k int) int64 {
	return x &^ (int64(1)<<uint(k) - 1)
}

func orInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	if a.Lo >= 0 && b.Lo >= 0 && a.Hi != posInf && b.Hi != posInf {
		// Or only sets bits: the result is at least either operand, and
		// cannot exceed the power-of-two envelope of both.
		return Range(maxI64(a.Lo, b.Lo), pow2Envelope(maxI64(a.Hi, b.Hi)))
	}
	// A negative constant mask forces the sign bit: x | c ∈ [c, -1].
	if c, ok := b.ConstVal(); ok && c < 0 {
		return Range(c, -1)
	}
	if c, ok := a.ConstVal(); ok && c < 0 {
		return Range(c, -1)
	}
	return Top()
}

func xorInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	// x ^ -1 is bitwise not: exactly -x - 1, an order-reversing bijection.
	if c, ok := b.ConstVal(); ok && c == -1 {
		return Interval{Lo: satSub(satNeg(a.Hi), 1), Hi: satSub(satNeg(a.Lo), 1)}
	}
	if c, ok := a.ConstVal(); ok && c == -1 {
		return Interval{Lo: satSub(satNeg(b.Hi), 1), Hi: satSub(satNeg(b.Lo), 1)}
	}
	if a.Lo >= 0 && b.Lo >= 0 && a.Hi != posInf && b.Hi != posInf {
		// Result cannot exceed the next power-of-two envelope of both.
		return Range(0, pow2Envelope(maxI64(a.Hi, b.Hi)))
	}
	return Top()
}

// lshrInterval models the logical right shift of the type-width unsigned
// value. ty is the result type (operands share it).
func lshrInterval(a, s Interval, ty *llvm.Type) Interval {
	if a.Empty || s.Empty {
		return Bottom()
	}
	if !s.Bounded() || s.Lo < 0 || s.Hi > 63 {
		return Top()
	}
	if a.Lo >= 0 {
		// Nonnegative operand: logical and arithmetic shifts agree, and the
		// result is monotone decreasing in the shift amount.
		shr := func(x int64, k int64) int64 {
			if x == posInf {
				if k == 0 {
					return posInf
				}
				return posInf >> uint(k)
			}
			return x >> uint(k)
		}
		return Range(shr(a.Lo, s.Hi), shr(a.Hi, s.Lo))
	}
	// Possibly-negative operand: the masked unsigned value spans the whole
	// type width, so only the shift amount bounds the result. With a shift
	// of zero the sign bit can survive (the sign-extended representation
	// stays negative), so only the type bounds the result then.
	bits := 64
	if ty != nil && ty.IsInt() && ty.Bits > 0 && ty.Bits <= 64 {
		bits = ty.Bits
	}
	if s.Lo == 0 {
		return typeTop(ty)
	}
	var umax uint64
	if bits == 64 {
		umax = ^uint64(0) >> uint(s.Lo)
	} else {
		umax = (uint64(1)<<uint(bits) - 1) >> uint(s.Lo)
	}
	return Range(0, int64(umax))
}

// pow2Envelope returns 2^ceil(log2(m+1)) - 1: the largest value expressible
// in the bits needed for m.
func pow2Envelope(m int64) int64 {
	var e int64 = 1
	for e-1 < m && e > 0 {
		e <<= 1
	}
	if e <= 0 {
		return posInf
	}
	return e - 1
}

func shlInterval(a, s Interval) Interval {
	if a.Empty || s.Empty {
		return Bottom()
	}
	if !s.Bounded() || s.Lo < 0 || s.Hi > 62 || !a.Bounded() {
		return Top()
	}
	return cornerHull(
		satMul(a.Lo, int64(1)<<s.Lo), satMul(a.Lo, int64(1)<<s.Hi),
		satMul(a.Hi, int64(1)<<s.Lo), satMul(a.Hi, int64(1)<<s.Hi))
}

func ashrInterval(a, s Interval) Interval {
	if a.Empty || s.Empty {
		return Bottom()
	}
	if !s.Bounded() || s.Lo < 0 || s.Hi > 62 {
		return Top()
	}
	// Arithmetic shift floors toward -inf and is monotone in both args.
	shr := func(x int64, k int64) int64 {
		if x == negInf || x == posInf {
			return x
		}
		return x >> uint(k)
	}
	return cornerHull(
		shr(a.Lo, s.Lo), shr(a.Lo, s.Hi),
		shr(a.Hi, s.Lo), shr(a.Hi, s.Hi))
}

func zextInterval(a Interval, from *llvm.Type) Interval {
	if a.Empty {
		return a
	}
	if a.Lo >= 0 {
		return a // nonnegative: zext is the identity
	}
	if from != nil && from.IsInt() && from.Bits < 64 && from.Bits > 0 {
		return Range(0, int64(1)<<from.Bits-1)
	}
	return Interval{Lo: 0, Hi: posInf}
}

// icmpInterval folds a comparison whose outcome the operand intervals
// decide; otherwise [0, 1].
func icmpInterval(a, b Interval, pred string) Interval {
	if a.Empty || b.Empty {
		return Range(0, 1)
	}
	decided := func(alwaysTrue, alwaysFalse bool) Interval {
		switch {
		case alwaysTrue:
			return Const(1)
		case alwaysFalse:
			return Const(0)
		}
		return Range(0, 1)
	}
	switch pred {
	case "eq":
		if ca, ok := a.ConstVal(); ok {
			if cb, ok := b.ConstVal(); ok {
				return decided(ca == cb, ca != cb)
			}
		}
		return decided(false, a.Intersect(b).Empty)
	case "ne":
		if ca, ok := a.ConstVal(); ok {
			if cb, ok := b.ConstVal(); ok {
				return decided(ca != cb, ca == cb)
			}
		}
		return decided(a.Intersect(b).Empty, false)
	case "slt":
		return decided(a.Hi < b.Lo, a.Lo >= b.Hi)
	case "sle":
		return decided(a.Hi <= b.Lo, a.Lo > b.Hi)
	case "sgt":
		return decided(a.Lo > b.Hi, a.Hi <= b.Lo)
	case "sge":
		return decided(a.Lo >= b.Hi, a.Hi < b.Lo)
	case "ult", "ule", "ugt", "uge":
		// Sound only when both sides are provably nonnegative (signed and
		// unsigned orders then agree).
		if a.Lo >= 0 && b.Lo >= 0 {
			switch pred {
			case "ult":
				return decided(a.Hi < b.Lo, a.Lo >= b.Hi)
			case "ule":
				return decided(a.Hi <= b.Lo, a.Lo > b.Hi)
			case "ugt":
				return decided(a.Lo > b.Hi, a.Hi <= b.Lo)
			case "uge":
				return decided(a.Lo >= b.Hi, a.Hi < b.Lo)
			}
		}
	}
	return Range(0, 1)
}

// Refine narrows both compare operands under "cmp is taken-true/false".
// Returns false when a refined interval is empty (edge infeasible).
func (intervalDomain) Refine(env *Env[Interval], cmp *llvm.Instr, taken bool) bool {
	a, b := cmp.Args[0], cmp.Args[1]
	ia, ib := env.Get(a), env.Get(b)
	pred := cmp.Pred
	if !taken {
		pred = NegatePred(pred)
	}
	na, nb := ia, ib
	switch pred {
	case "eq":
		na = ia.Intersect(ib)
		nb = na
	case "ne":
		if c, ok := ib.ConstVal(); ok {
			na = trimPoint(ia, c)
		}
		if c, ok := ia.ConstVal(); ok {
			nb = trimPoint(ib, c)
		}
	case "slt":
		na = ia.Intersect(Interval{Lo: negInf, Hi: satSub(ib.Hi, 1)})
		nb = ib.Intersect(Interval{Lo: satAdd(ia.Lo, 1), Hi: posInf})
	case "sle":
		na = ia.Intersect(Interval{Lo: negInf, Hi: ib.Hi})
		nb = ib.Intersect(Interval{Lo: ia.Lo, Hi: posInf})
	case "sgt":
		na = ia.Intersect(Interval{Lo: satAdd(ib.Lo, 1), Hi: posInf})
		nb = ib.Intersect(Interval{Lo: negInf, Hi: satSub(ia.Hi, 1)})
	case "sge":
		na = ia.Intersect(Interval{Lo: ib.Lo, Hi: posInf})
		nb = ib.Intersect(Interval{Lo: negInf, Hi: ia.Hi})
	case "ult":
		// a <u b with b's unsigned value known ≤ signed-max: a ∈ [0, b.Hi-1].
		if ib.Lo >= 0 && ib.Hi != posInf {
			na = ia.Intersect(Range(0, ib.Hi-1))
		}
		if ia.Lo >= 0 {
			nb = ib.Intersect(Interval{Lo: satAdd(ia.Lo, 1), Hi: posInf})
		}
	case "ule":
		if ib.Lo >= 0 && ib.Hi != posInf {
			na = ia.Intersect(Range(0, ib.Hi))
		}
		if ia.Lo >= 0 {
			nb = ib.Intersect(Interval{Lo: ia.Lo, Hi: posInf})
		}
	case "ugt":
		if ia.Lo >= 0 && ia.Hi != posInf {
			nb = ib.Intersect(Range(0, ia.Hi-1))
		}
		if ib.Lo >= 0 {
			na = ia.Intersect(Interval{Lo: satAdd(ib.Lo, 1), Hi: posInf})
		}
	case "uge":
		if ia.Lo >= 0 && ia.Hi != posInf {
			nb = ib.Intersect(Range(0, ia.Hi))
		}
		if ib.Lo >= 0 {
			na = ia.Intersect(Interval{Lo: ib.Lo, Hi: posInf})
		}
	default:
		return true
	}
	if na.Empty || nb.Empty {
		return false
	}
	env.Set(a, na)
	env.Set(b, nb)
	return true
}

// trimPoint removes c from iv when c is one of its endpoints.
func trimPoint(iv Interval, c int64) Interval {
	switch {
	case iv.Empty:
		return iv
	case iv.Lo == c && iv.Hi == c:
		return Bottom()
	case iv.Lo == c:
		return Range(c+1, iv.Hi)
	case iv.Hi == c:
		return Range(iv.Lo, c-1)
	}
	return iv
}

// NegatePred returns the icmp predicate that holds exactly when pred does
// not: the predicate a compare's false edge refines by.
func NegatePred(pred string) string {
	switch pred {
	case "eq":
		return "ne"
	case "ne":
		return "eq"
	case "slt":
		return "sge"
	case "sle":
		return "sgt"
	case "sgt":
		return "sle"
	case "sge":
		return "slt"
	case "ult":
		return "uge"
	case "ule":
		return "ugt"
	case "ugt":
		return "ule"
	case "uge":
		return "ult"
	}
	return pred
}

// IntervalResult exposes one function's solved value ranges.
type IntervalResult struct {
	facts *Facts[Interval]
}

// Intervals runs the interval analysis over f.
func Intervals(f *llvm.Function) *IntervalResult {
	return &IntervalResult{facts: Solve[Interval](f, intervalDomain{})}
}

// At returns v's interval at the program point of block b: the block's
// out-state for values defined in b, the (branch-refined) in-state
// otherwise. Unreached blocks yield the empty interval.
func (r *IntervalResult) At(b *llvm.Block, v llvm.Value) Interval {
	if iv, ok := r.facts.At(b, v); ok {
		return iv
	}
	return Bottom()
}

// Unreachable reports whether b is CFG-reachable yet provably never
// executed (every incoming edge's branch condition excludes it).
func (r *IntervalResult) Unreachable(b *llvm.Block) bool { return r.facts.Unreachable(b) }
