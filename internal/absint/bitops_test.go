package absint

import (
	"testing"

	"repro/internal/llvm"
)

// TestBitOpTransfers exercises the interval transfer of every bit operation
// one op at a time, with the constant-operand shapes (alignment masks,
// sign-setting masks, bitwise not, constant shifts) that previously fell to
// top.
func TestBitOpTransfers(t *testing.T) {
	i32 := llvm.IntT(32)
	cases := []struct {
		name string
		got  Interval
		want Interval
	}{
		// and
		{"and-nonneg", andInterval(Range(0, 100), Range(0, 15)), Range(0, 15)},
		{"and-nonneg-one-side", andInterval(Range(-5, 7), Range(0, 63)), Range(0, 63)},
		{"and-align-mask", andInterval(Range(5, 21), Const(-8)), Range(0, 16)},
		{"and-align-mask-neg", andInterval(Range(-13, -5), Const(-4)), Range(-16, -8)},
		{"and-align-mask-swapped", andInterval(Const(-8), Range(5, 21)), Range(0, 16)},
		{"and-both-maybe-neg", andInterval(Range(-4, 3), Range(-2, 5)), Range(-6, 5)},
		{"and-empty", andInterval(Bottom(), Range(0, 1)), Bottom()},
		// or
		{"or-nonneg", orInterval(Range(4, 6), Range(1, 1)), Range(4, 7)},
		{"or-nonneg-lo", orInterval(Range(8, 9), Range(2, 3)), Range(8, 15)},
		{"or-neg-mask", orInterval(Range(0, 100), Const(-16)), Range(-16, -1)},
		{"or-neg-mask-swapped", orInterval(Const(-16), Range(0, 100)), Range(-16, -1)},
		{"or-unknown", orInterval(Top(), Range(-3, 5)), Top()},
		// xor
		{"xor-nonneg", xorInterval(Range(0, 5), Range(0, 9)), Range(0, 15)},
		{"xor-not", xorInterval(Range(3, 10), Const(-1)), Range(-11, -4)},
		{"xor-not-swapped", xorInterval(Const(-1), Range(-4, 7)), Range(-8, 3)},
		{"xor-unknown", xorInterval(Range(-1, 1), Range(0, 1)), Top()},
		// shl
		{"shl-const", shlInterval(Range(1, 5), Const(3)), Range(8, 40)},
		{"shl-range", shlInterval(Range(-2, 3), Range(0, 2)), Range(-8, 12)},
		{"shl-unbounded", shlInterval(Top(), Const(1)), Top()},
		// lshr
		{"lshr-nonneg-const", lshrInterval(Range(16, 64), Const(2), i32), Range(4, 16)},
		{"lshr-nonneg-range", lshrInterval(Range(16, 64), Range(1, 3), i32), Range(2, 32)},
		{"lshr-neg-i32", lshrInterval(Range(-8, -1), Const(1), i32), Range(0, (1<<31)-1)},
		{"lshr-neg-shift0", lshrInterval(Range(-8, -1), Const(0), i32), typeTop(i32)},
		{"lshr-neg-i64", lshrInterval(Range(-8, -1), Const(1), llvm.I64()), Range(0, posInf)},
		{"lshr-amount-unknown", lshrInterval(Range(0, 7), Top(), i32), Top()},
		// ashr
		{"ashr-const", ashrInterval(Range(-17, 33), Const(2)), Range(-5, 8)},
		{"ashr-range", ashrInterval(Range(64, 64), Range(1, 3)), Range(8, 32)},
	}
	for _, c := range cases {
		if !c.got.Equal(c.want) {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestBitOpTransfersEndToEnd runs the full interval analysis over a straight-
// line function mixing the bit ops, checking the solved result of each value
// (the transfer gaps used to leave every one of these at the type's top).
func TestBitOpTransfersEndToEnd(t *testing.T) {
	i64 := llvm.I64()
	f := llvm.NewFunction("bits", llvm.Void(), &llvm.Param{Name: "x", Ty: i64})
	entry := f.AddBlock("entry")
	guard := f.AddBlock("guard")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	x := f.Params[0]
	cmp := b.ICmp("ult", x, llvm.CI(i64, 100))
	b.CondBr(cmp, guard, exit)

	b.SetBlock(guard)
	masked := b.Binary(llvm.OpAnd, x, llvm.CI(i64, -8))
	masked.Name = "masked"
	halved := b.Binary(llvm.OpLShr, masked, llvm.CI(i64, 1))
	halved.Name = "halved"
	tagged := b.Binary(llvm.OpOr, halved, llvm.CI(i64, 1))
	tagged.Name = "tagged"
	flipped := b.Binary(llvm.OpXor, tagged, llvm.CI(i64, -1))
	flipped.Name = "flipped"
	b.Br(exit)

	b.SetBlock(exit)
	b.Ret(nil)

	iv := Intervals(loopsOf(f))
	want := map[*llvm.Instr]Interval{
		masked:  Range(0, 96),
		halved:  Range(0, 48),
		tagged:  Range(1, 63),
		flipped: Range(-64, -2),
	}
	for in, w := range want {
		got := iv.At(guard, in)
		if !got.Equal(w) {
			t.Errorf("%%%s: got %s, want %s", in.Name, got, w)
		}
	}
}
