package absint

import (
	"fmt"
	"math"

	"repro/internal/llvm"
)

// The extreme int64 values act as the -inf/+inf sentinels of unbounded
// interval ends; saturating arithmetic keeps them absorbing.
const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

// Interval is a signed-integer interval [Lo, Hi] with negInf/posInf
// sentinels for unbounded ends, or the empty (bottom) element. Arithmetic
// saturates: the analysis assumes index/integer arithmetic does not wrap,
// the same assumption the affine induction reasoning it replaces made (the
// MLIR lowering computes addresses on promoted i64 indices, where the array
// extents HLS supports cannot overflow).
type Interval struct {
	Lo, Hi int64
	// Empty marks the bottom element; Lo/Hi are then meaningless.
	Empty bool
}

// Top returns the unbounded interval.
func Top() Interval { return Interval{Lo: negInf, Hi: posInf} }

// Bottom returns the empty interval.
func Bottom() Interval { return Interval{Empty: true} }

// Const returns the singleton interval {c}.
func Const(c int64) Interval { return Interval{Lo: c, Hi: c} }

// Range returns [lo, hi], or the empty interval when lo > hi.
func Range(lo, hi int64) Interval {
	if lo > hi {
		return Bottom()
	}
	return Interval{Lo: lo, Hi: hi}
}

// typeTop returns the full range of an integer type: the analysis never
// claims more than the type can represent, which is what gives shift-width
// and zext reasoning their baseline.
func typeTop(ty *llvm.Type) Interval {
	if ty == nil || !ty.IsInt() {
		return Top()
	}
	switch bits := ty.Bits; {
	case bits == 1:
		return Range(0, 1) // i1 holds icmp results: 0 or 1
	case bits >= 64 || bits <= 0:
		return Top()
	default:
		return Range(-(int64(1) << (bits - 1)), int64(1)<<(bits-1)-1)
	}
}

// Bounded reports whether both ends are finite (the precondition for every
// lint check that fires on an interval: unbounded means "unknown", and
// unknown must stay silent).
func (iv Interval) Bounded() bool { return !iv.Empty && iv.Lo != negInf && iv.Hi != posInf }

// ConstVal returns the single value of a singleton interval.
func (iv Interval) ConstVal() (int64, bool) {
	if !iv.Empty && iv.Lo == iv.Hi && iv.Lo != negInf && iv.Lo != posInf {
		return iv.Lo, true
	}
	return 0, false
}

// Contains reports whether c may be a value of the interval.
func (iv Interval) Contains(c int64) bool { return !iv.Empty && iv.Lo <= c && c <= iv.Hi }

// Union returns the least interval covering both.
func (iv Interval) Union(o Interval) Interval {
	if iv.Empty {
		return o
	}
	if o.Empty {
		return iv
	}
	return Interval{Lo: minI64(iv.Lo, o.Lo), Hi: maxI64(iv.Hi, o.Hi)}
}

// Intersect returns the meet of both intervals.
func (iv Interval) Intersect(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Bottom()
	}
	return Range(maxI64(iv.Lo, o.Lo), minI64(iv.Hi, o.Hi))
}

// WidenFrom extrapolates iv against the previous iterate: an end that grew
// jumps to its infinity, so ascending chains stabilize in one more step.
func (iv Interval) WidenFrom(prev Interval) Interval {
	if prev.Empty {
		return iv
	}
	if iv.Empty {
		return prev
	}
	w := prev
	if iv.Lo < prev.Lo {
		w.Lo = negInf
	}
	if iv.Hi > prev.Hi {
		w.Hi = posInf
	}
	return w
}

// Equal reports interval equality.
func (iv Interval) Equal(o Interval) bool {
	if iv.Empty || o.Empty {
		return iv.Empty == o.Empty
	}
	return iv.Lo == o.Lo && iv.Hi == o.Hi
}

// String renders the interval for diagnostics and -explain output.
func (iv Interval) String() string {
	if iv.Empty {
		return "empty"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != negInf {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != posInf {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Saturating bound arithmetic. Infinite operands absorb; finite overflow
// saturates toward the overflow direction.

func satAdd(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	if b > 0 && s < a {
		return posInf
	}
	if b < 0 && s > a {
		return negInf
	}
	return s
}

func satNeg(a int64) int64 {
	switch a {
	case negInf:
		return posInf
	case posInf:
		return negInf
	}
	return -a
}

func satSub(a, b int64) int64 { return satAdd(a, satNeg(b)) }

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	pos := (a > 0) == (b > 0)
	if a == negInf || a == posInf || b == negInf || b == posInf {
		if pos {
			return posInf
		}
		return negInf
	}
	p := a * b
	if p/b != a || (pos && p < 0) || (!pos && p > 0) {
		if pos {
			return posInf
		}
		return negInf
	}
	return p
}

// satDiv truncates toward zero; d must be nonzero. An infinite divisor
// yields 0 for finite numerators (the limit is attained arbitrarily closely
// and 0 always lies between the finite corners).
func satDiv(a, d int64) int64 {
	if d == negInf || d == posInf {
		if a == negInf || a == posInf {
			return 0
		}
		return 0
	}
	switch a {
	case negInf:
		if d > 0 {
			return negInf
		}
		return posInf
	case posInf:
		if d > 0 {
			return posInf
		}
		return negInf
	}
	return a / d
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Bottom()
	}
	return Interval{Lo: satAdd(iv.Lo, o.Lo), Hi: satAdd(iv.Hi, o.Hi)}
}

// Sub returns the interval difference.
func (iv Interval) Sub(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Bottom()
	}
	return Interval{Lo: satSub(iv.Lo, o.Hi), Hi: satSub(iv.Hi, o.Lo)}
}

// Mul returns the interval product (corner evaluation; x*y is monotone in
// each argument, so extremes lie at corners).
func (iv Interval) Mul(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Bottom()
	}
	return cornerHull(
		satMul(iv.Lo, o.Lo), satMul(iv.Lo, o.Hi),
		satMul(iv.Hi, o.Lo), satMul(iv.Hi, o.Hi))
}

// Div returns the truncated quotient interval; a divisor range containing
// zero yields Top (division by zero is flagged separately by div-by-zero).
func (iv Interval) Div(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Bottom()
	}
	if o.Contains(0) {
		return Top()
	}
	return cornerHull(
		satDiv(iv.Lo, o.Lo), satDiv(iv.Lo, o.Hi),
		satDiv(iv.Hi, o.Lo), satDiv(iv.Hi, o.Hi))
}

// Rem returns the truncated remainder interval (sign follows the dividend).
func (iv Interval) Rem(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Bottom()
	}
	if o.Contains(0) || !o.Bounded() {
		// Remainder magnitude is still below the dividend magnitude, but
		// division by zero poisons the result; stay conservative by sign.
		if iv.Lo >= 0 {
			return Interval{Lo: 0, Hi: posInf}
		}
		return Top()
	}
	m := maxI64(absI64(o.Lo), absI64(o.Hi)) - 1
	switch {
	case iv.Lo >= 0:
		hi := m
		if iv.Hi < hi {
			hi = iv.Hi
		}
		return Range(0, hi)
	case iv.Hi <= 0:
		return Range(-m, 0)
	default:
		return Range(-m, m)
	}
}

func cornerHull(vals ...int64) Interval {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = minI64(lo, v), maxI64(hi, v)
	}
	return Interval{Lo: lo, Hi: hi}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func absI64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
