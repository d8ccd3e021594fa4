package bitwidth

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// loopsOf builds f's CFG and loop nest, what the analyses are handed.
func loopsOf(f *llvm.Function) *analysis.LoopInfo {
	cfg := analysis.NewCFG(f)
	return analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
}

// analyze builds f's width oracle from one loop nest and its intervals.
func analyze(f *llvm.Function) *Analysis {
	loops := loopsOf(f)
	return Analyze(loops, absint.Intervals(loops))
}

// TestKnownBitsBranchRefinement checks the masked-compare edge refinement:
// inside `if (x & 7) == 5`, the low three bits of x are known.
func TestKnownBitsBranchRefinement(t *testing.T) {
	i64 := llvm.I64()
	f := llvm.NewFunction("masked", llvm.Void(), &llvm.Param{Name: "x", Ty: i64})
	entry := f.AddBlock("entry")
	yes := f.AddBlock("yes")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	x := f.Params[0]
	masked := b.Binary(llvm.OpAnd, x, llvm.CI(i64, 7))
	cmp := b.ICmp("eq", masked, llvm.CI(i64, 5))
	b.CondBr(cmp, yes, exit)

	b.SetBlock(yes)
	tagged := b.Binary(llvm.OpOr, x, llvm.CI(i64, 2))
	tagged.Name = "tagged"
	b.Br(exit)

	b.SetBlock(exit)
	b.Ret(nil)

	kb := Known(loopsOf(f))
	kx := kb.At(yes, x)
	want := KnownBits{Zero: 2, One: 5} // low bits ...101
	if kx.Zero&7 != want.Zero || kx.One&7 != want.One {
		t.Errorf("x at yes: got %s, want low bits 101", kx)
	}
	// x|2 pins bit 1 too: low three bits become 111.
	kt := kb.At(yes, tagged)
	if kt.One&7 != 7 {
		t.Errorf("x|2 at yes: got %s, want low bits 111", kt)
	}
}

// TestKnownBitsInfeasibleEdge checks that a contradictory masked compare
// kills the edge: (x & 4) == 4 and then x == 0 cannot both hold.
func TestKnownBitsInfeasibleEdge(t *testing.T) {
	i64 := llvm.I64()
	f := llvm.NewFunction("infeasible", llvm.Void(), &llvm.Param{Name: "x", Ty: i64})
	entry := f.AddBlock("entry")
	mid := f.AddBlock("mid")
	dead := f.AddBlock("dead")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	x := f.Params[0]
	masked := b.Binary(llvm.OpAnd, x, llvm.CI(i64, 4))
	cmp := b.ICmp("eq", masked, llvm.CI(i64, 4))
	b.CondBr(cmp, mid, exit)

	b.SetBlock(mid)
	zero := b.ICmp("eq", x, llvm.CI(i64, 0))
	b.CondBr(zero, dead, exit)

	b.SetBlock(dead)
	b.Br(exit)

	b.SetBlock(exit)
	b.Ret(nil)

	kb := Known(loopsOf(f))
	if kb.Reached(dead) {
		t.Errorf("dead block reached: bit 2 of x is pinned to one on this path")
	}
}

// TestDemandedBits checks the backward mask propagation through a
// mask-at-the-bottom chain.
func TestDemandedBits(t *testing.T) {
	i32 := llvm.I32()
	f := llvm.NewFunction("dem", llvm.Void(),
		&llvm.Param{Name: "x", Ty: i32},
		&llvm.Param{Name: "p", Ty: llvm.Ptr(i32)})
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	x := f.Params[0]
	sq := b.Mul(x, x)
	inc := b.Add(sq, llvm.CI(i32, 1))
	low := b.Binary(llvm.OpAnd, inc, llvm.CI(i32, 0xFF))
	b.Store(low, f.Params[1])
	hi := b.Binary(llvm.OpLShr, low, llvm.CI(i32, 4))
	b.Store(hi, f.Params[1])
	b.Ret(nil)

	f.Renumber()
	d := demandedBits(f)
	if got, _ := d.of(low); got != demandAll {
		t.Errorf("demanded[and] = %#x, want all (stored)", got)
	}
	// The and masks the store's demand down to the low byte; add/mul demand
	// low bits only (carries travel upward).
	if got, _ := d.of(inc); got != 0xFF {
		t.Errorf("demanded[add] = %#x, want 0xff", got)
	}
	if got, _ := d.of(sq); got != 0xFF {
		t.Errorf("demanded[mul] = %#x, want 0xff", got)
	}
}

// TestWidthOracle runs the fused analysis end to end: a guarded value gets a
// narrow forward width, and a downstream mask narrows the hardware width of
// producers above it without touching their value width.
func TestWidthOracle(t *testing.T) {
	i32 := llvm.I32()
	f := llvm.NewFunction("widths", llvm.Void(),
		&llvm.Param{Name: "x", Ty: i32},
		&llvm.Param{Name: "p", Ty: llvm.Ptr(i32)})
	entry := f.AddBlock("entry")
	body := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	x := f.Params[0]
	guard := b.ICmp("ult", x, llvm.CI(i32, 100))
	b.CondBr(guard, body, exit)

	b.SetBlock(body)
	doubled := b.Add(x, x) // [0, 198]: u8
	doubled.Name = "doubled"
	neg := b.Sub(llvm.CI(i32, 0), doubled) // [-198, 0]: s9
	neg.Name = "neg"
	masked := b.Binary(llvm.OpAnd, doubled, llvm.CI(i32, 0xF)) // [0, 15]: u4
	masked.Name = "masked"
	b.Store(masked, f.Params[1])
	b.Store(neg, f.Params[1])
	b.Br(exit)

	b.SetBlock(exit)
	b.Ret(nil)

	a := analyze(f)
	if w := a.ValueWidth(doubled); w != (Width{Bits: 8, Signed: false}) {
		t.Errorf("doubled: value width %s, want u8", w)
	}
	if w := a.ValueWidth(neg); w != (Width{Bits: 9, Signed: true}) {
		t.Errorf("neg: value width %s, want s9", w)
	}
	if w := a.ValueWidth(masked); w != (Width{Bits: 4, Signed: false}) {
		t.Errorf("masked: value width %s, want u4", w)
	}
	// The and only observes doubled's low 4 bits, but neg observes all 8: the
	// hardware width of doubled is max over consumers as lowDemand sees it.
	if w := a.HWWidth(doubled); w.Bits != 8 {
		t.Errorf("doubled: hw width %d, want 8 (neg still demands low 8)", w.Bits)
	}
	if w := a.OpWidth(guard); w != 32 {
		t.Errorf("guard comparator width %d, want 32 (x unbounded before the guard)", w)
	}

	// Containment: the widths really hold the dynamic values.
	for _, v := range []int64{0, 99} {
		d := truncRep(v+v, 32)
		if !a.ValueWidth(doubled).Contains(d) {
			t.Errorf("u8 does not contain doubled=%d", d)
		}
		if !a.ValueWidth(neg).Contains(-d) {
			t.Errorf("s9 does not contain neg=%d", -d)
		}
	}

	rep := a.Report()
	if len(rep) != 4 { // guard icmp, doubled, neg, masked
		t.Fatalf("report rows = %d, want 4", len(rep))
	}
	if rep[1].Name != "doubled" || rep[1].Width != "u8" {
		t.Errorf("report[1] = %+v, want doubled u8", rep[1])
	}
}

// TestHWWidthDeadAndNarrow checks the demanded-bits side of HWWidth: a value
// only consumed through a narrow mask shrinks, a value never consumed
// collapses to one wire.
func TestHWWidthDeadAndNarrow(t *testing.T) {
	i32 := llvm.I32()
	f := llvm.NewFunction("hw", llvm.Void(),
		&llvm.Param{Name: "x", Ty: i32},
		&llvm.Param{Name: "p", Ty: llvm.Ptr(i32)})
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	x := f.Params[0]
	wide := b.Mul(x, x)
	wide.Name = "wide"
	lowNib := b.Binary(llvm.OpAnd, wide, llvm.CI(i32, 0xF))
	b.Store(lowNib, f.Params[1])
	dead := b.Add(x, llvm.CI(i32, 1))
	dead.Name = "dead"
	b.Ret(nil)

	a := analyze(f)
	if w := a.ValueWidth(wide); w.Bits != 32 {
		t.Errorf("wide: value width %d, want 32", w.Bits)
	}
	if w := a.HWWidth(wide); w.Bits != 4 {
		t.Errorf("wide: hw width %d, want 4 (only low nibble observed)", w.Bits)
	}
	if w := a.HWWidth(dead); w.Bits != 1 {
		t.Errorf("dead: hw width %d, want 1", w.Bits)
	}

	if w := a.OpWidth(wide); w != 4 {
		t.Errorf("wide: op width %d, want 4", w)
	}
}
