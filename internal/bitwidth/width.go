package bitwidth

import (
	"fmt"
	"math/bits"

	"repro/internal/absint"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Width is the minimal sound hardware width of a value: Bits datapath bits,
// interpreted two's-complement when Signed. An unsigned width W covers
// [0, 2^W-1]; a signed width W covers [-2^(W-1), 2^(W-1)-1].
type Width struct {
	Bits   int
	Signed bool
}

func (w Width) String() string {
	if w.Signed {
		return fmt.Sprintf("s%d", w.Bits)
	}
	return fmt.Sprintf("u%d", w.Bits)
}

// Contains reports whether the dynamic (sign-extended representation) value
// x fits the width — the predicate the soundness gate asserts.
func (w Width) Contains(x int64) bool {
	if w.Bits >= 64 {
		return true
	}
	if w.Signed {
		lo := -(int64(1) << uint(w.Bits-1))
		hi := int64(1)<<uint(w.Bits-1) - 1
		return x >= lo && x <= hi
	}
	return x >= 0 && x <= int64(1)<<uint(w.Bits)-1
}

// Analysis fuses the three per-function analyses — forward known bits,
// forward intervals, backward demanded bits — into the width oracle.
type Analysis struct {
	F        *llvm.Function
	kb       *KnownBitsResult
	iv       *absint.IntervalResult
	demanded demanded
}

// Analyze builds the width oracle of the function of loops: it solves
// known bits over the CFG the loops were found in, fuses them with iv, the
// intervals solved over the same loops, and adds the demanded bits.
func Analyze(loops *analysis.LoopInfo, iv *absint.IntervalResult) *Analysis {
	f := loops.CFG.F
	return &Analysis{F: f, kb: Known(loops), iv: iv, demanded: demandedBits(f)}
}

// WidthAt returns the forward-sound width of v observed at block b: the
// tightest signed range consistent with both the known-bits fact and the
// interval, converted to a width. This is the containment-sound width — the
// soundness gate asserts every dynamic value stays inside it.
func (a *Analysis) WidthAt(b *llvm.Block, v llvm.Value) Width {
	lo, hi, live := a.rangeAt(b, v)
	if !live {
		return Width{Bits: 1, Signed: false} // unreachable: any width holds
	}
	return widthOfRange(lo, hi, intBits(v.Type()))
}

// ValueWidth returns the forward-sound width of an instruction's result at
// its definition.
func (a *Analysis) ValueWidth(in *llvm.Instr) Width {
	return a.WidthAt(in.Parent, in)
}

// KnownAt returns the solved known-bits fact of v at block b.
func (a *Analysis) KnownAt(b *llvm.Block, v llvm.Value) KnownBits { return a.kb.At(b, v) }

// Demanded returns the demanded-bits mask of an instruction's result.
func (a *Analysis) Demanded(in *llvm.Instr) uint64 {
	d, _ := a.demanded.of(in)
	return d
}

// HWWidth returns the hardware width of an instruction's result: the
// forward-sound width further narrowed by the bits downstream consumers can
// observe. This is a datapath fact, not a value fact — the dynamic value may
// exceed it — so only the cost model consumes it.
func (a *Analysis) HWWidth(in *llvm.Instr) Width {
	w := a.ValueWidth(in)
	d, tracked := a.demanded.of(in)
	if !tracked {
		return w
	}
	if d == 0 {
		// Never demanded: the result is dead; one wire suffices.
		return Width{Bits: 1, Signed: w.Signed}
	}
	if db := 64 - bits.LeadingZeros64(d); db < w.Bits {
		w.Bits = db
	}
	return w
}

// RangeAt returns the fused signed range of v at block b; ok=false means the
// point is unreachable (or the meet of the two analyses is empty).
func (a *Analysis) RangeAt(b *llvm.Block, v llvm.Value) (lo, hi int64, ok bool) {
	return a.rangeAt(b, v)
}

// rangeAt intersects the known-bits range with the interval. live=false
// means the program point is unreachable or the meet is empty.
func (a *Analysis) rangeAt(b *llvm.Block, v llvm.Value) (lo, hi int64, live bool) {
	klo, khi := a.kb.At(b, v).Range()
	iv := a.iv.At(b, v)
	if iv.Empty {
		return 0, 0, false
	}
	if iv.Lo > klo {
		klo = iv.Lo
	}
	if iv.Hi < khi {
		khi = iv.Hi
	}
	if klo > khi {
		return 0, 0, false
	}
	return klo, khi, true
}

// widthOfRange converts a signed range to a width, capped at the declared
// type width: nonnegative ranges become unsigned, anything else signed.
func widthOfRange(lo, hi int64, typeBits int) Width {
	var w Width
	if lo >= 0 {
		w = Width{Bits: maxInt(1, bitsFor(uint64(hi))), Signed: false}
	} else {
		n := signedBitsFor(lo)
		if m := signedBitsFor(hi); m > n {
			n = m
		}
		w = Width{Bits: n, Signed: true}
	}
	if w.Bits > typeBits {
		w.Bits = typeBits
		// At full declared width the signed form is the sound default for a
		// range that reaches negative values; nonnegative full-width stays
		// unsigned (e.g. an i1 comparison result).
	}
	return w
}

// bitsFor returns the bits needed to represent u unsigned (0 for u == 0).
func bitsFor(u uint64) int { return 64 - bits.LeadingZeros64(u) }

// signedBitsFor returns the minimal N with -2^(N-1) <= x < 2^(N-1).
func signedBitsFor(x int64) int {
	if x >= 0 {
		return bitsFor(uint64(x)) + 1
	}
	return bitsFor(^uint64(x)) + 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// OpWidth returns the effective datapath width the operator of in must be
// built at: the comparator sees its operands in full, data-carrying ops are
// exactly as wide as their (demand-narrowed) result — sound for the modular
// ops the cost model widths, since an N-bit ring op on truncated operands
// reproduces the N-bit result.
func (a *Analysis) OpWidth(in *llvm.Instr) int {
	switch in.Op {
	case llvm.OpICmp:
		w := 1
		for _, arg := range in.Args {
			if arg.Type() != nil && arg.Type().IsInt() {
				if ow := a.WidthAt(in.Parent, arg); ow.Bits > w {
					w = ow.Bits
				}
			}
		}
		return w
	}
	if in.Ty == nil || !in.Ty.IsInt() {
		return intBits(in.Ty)
	}
	return a.HWWidth(in).Bits
}

// ValueReport is one value's row of the deterministic width report.
type ValueReport struct {
	Name     string `json:"name"`
	Block    string `json:"block"`
	TypeBits int    `json:"type_bits"`
	Known    string `json:"known"`
	Interval string `json:"interval"`
	Width    string `json:"width"`
	HWBits   int    `json:"hw_bits"`
	Demanded string `json:"demanded"`
}

// Report lists every named integer value of f in block/instruction order —
// the stable basis of the widths golden and `hls-lint -widths`.
func (a *Analysis) Report() []ValueReport {
	var out []ValueReport
	for _, b := range a.F.Blocks {
		for _, in := range b.Instrs {
			if !in.HasResult() || in.Ty == nil || !in.Ty.IsInt() || in.Name == "" {
				continue
			}
			out = append(out, ValueReport{
				Name:     in.Name,
				Block:    b.Name,
				TypeBits: intBits(in.Ty),
				Known:    a.kb.At(b, in).String(),
				Interval: a.iv.At(b, in).String(),
				Width:    a.ValueWidth(in).String(),
				HWBits:   a.HWWidth(in).Bits,
				Demanded: fmt.Sprintf("%#x", a.Demanded(in)),
			})
		}
	}
	return out
}
