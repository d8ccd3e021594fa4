package absint

import (
	"testing"

	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

func TestIntervalAlgebra(t *testing.T) {
	cases := []struct {
		name string
		got  Interval
		want Interval
	}{
		{"add", Range(1, 3).Add(Range(10, 20)), Range(11, 23)},
		{"sub", Range(1, 3).Sub(Range(10, 20)), Range(-19, -7)},
		{"mul-signs", Range(-2, 3).Mul(Range(-5, 4)), Range(-15, 12)},
		{"mul-inf", Interval{Lo: 0, Hi: posInf}.Mul(Const(2)), Interval{Lo: 0, Hi: posInf}},
		{"div-pos", Range(-7, 9).Div(Const(2)), Range(-3, 4)},
		{"div-neg", Range(4, 9).Div(Const(-2)), Range(-4, -2)},
		{"div-zero-span", Range(1, 2).Div(Range(-1, 1)), Top()},
		{"rem", Range(0, 100).Rem(Const(8)), Range(0, 7)},
		{"rem-neg", Range(-100, -1).Rem(Const(8)), Range(-7, 0)},
		{"union", Range(0, 2).Union(Range(5, 9)), Range(0, 9)},
		{"intersect", Range(0, 6).Intersect(Range(4, 9)), Range(4, 6)},
		{"intersect-empty", Range(0, 2).Intersect(Range(5, 9)), Bottom()},
		{"widen-hi", Range(0, 5).WidenFrom(Range(0, 3)), Interval{Lo: 0, Hi: posInf}},
		{"widen-lo", Range(-2, 3).WidenFrom(Range(0, 3)), Interval{Lo: negInf, Hi: 3}},
		{"widen-stable", Range(0, 3).WidenFrom(Range(0, 3)), Range(0, 3)},
		{"sat-overflow", Const(posInf - 1).Add(Const(5)), Interval{Lo: posInf, Hi: posInf}},
		{"empty-prop", Bottom().Add(Range(1, 2)), Bottom()},
	}
	for _, c := range cases {
		if !c.got.Equal(c.want) {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
	if s := Range(0, 31).String(); s != "[0, 31]" {
		t.Errorf("String: %q", s)
	}
	if s := (Interval{Lo: negInf, Hi: 4}).String(); s != "[-inf, 4]" {
		t.Errorf("String: %q", s)
	}
}

// loopsOf builds f's CFG and loop nest, what the solves are handed.
func loopsOf(f *llvm.Function) *analysis.LoopInfo {
	cfg := analysis.NewCFG(f)
	return analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
}

// buildCountedLoop constructs the canonical loop shape both flows emit:
//
//	entry -> header{iv=phi(start,next); icmp pred iv, bound} -> body -> latch(next=iv+step) -> header
//
// with an f32 array GEP A[iv] in the body, and returns (function, gep, body).
func buildCountedLoop(t *testing.T, pred string, start, step, bound int64) (*llvm.Function, *llvm.Instr, *llvm.Block) {
	t.Helper()
	arr := llvm.ArrayOf(64, llvm.FloatT())
	f := llvm.NewFunction("loop", llvm.Void(), &llvm.Param{Name: "A", Ty: llvm.Ptr(arr)})
	entry := f.AddBlock("entry")
	header := f.AddBlock("header")
	body := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	b.Br(header)

	b.SetBlock(header)
	iv := b.Phi(llvm.I64())
	iv.Name = "iv"
	cmp := b.ICmp(pred, iv, llvm.CI(llvm.I64(), bound))
	b.CondBr(cmp, body, exit)

	b.SetBlock(body)
	gep := b.GEP(arr, f.Params[0], llvm.CI(llvm.I64(), 0), iv)
	v := b.Load(llvm.FloatT(), gep)
	b.Store(v, gep)
	next := b.Add(iv, llvm.CI(llvm.I64(), step))
	b.Br(header)

	b.SetBlock(exit)
	b.Ret(nil)

	iv.AddIncoming(llvm.CI(llvm.I64(), start), entry)
	iv.AddIncoming(next, body)
	return f, gep, body
}

func TestIntervalsCountedLoop(t *testing.T) {
	f, _, body := buildCountedLoop(t, "slt", 0, 1, 64)
	r := Intervals(loopsOf(f))
	iv := f.FindBlock("header").Instrs[0]
	if got := r.At(body, iv); !got.Equal(Range(0, 63)) {
		t.Errorf("iv in body: got %s, want [0, 63]", got)
	}
	exit := f.FindBlock("exit")
	if got := r.At(exit, iv); !got.Equal(Const(64)) {
		t.Errorf("iv at exit: got %s, want [64, 64]", got)
	}
}

func TestIntervalsDecrementingLoop(t *testing.T) {
	f, _, body := buildCountedLoop(t, "sgt", 63, -1, -1)
	r := Intervals(loopsOf(f))
	iv := f.FindBlock("header").Instrs[0]
	if got := r.At(body, iv); !got.Equal(Range(0, 63)) {
		t.Errorf("iv in body: got %s, want [0, 63]", got)
	}
}

func TestIntervalsUnsignedLoop(t *testing.T) {
	f, _, body := buildCountedLoop(t, "ult", 0, 2, 32)
	r := Intervals(loopsOf(f))
	iv := f.FindBlock("header").Instrs[0]
	if got := r.At(body, iv); !got.Equal(Range(0, 31)) {
		t.Errorf("iv in body: got %s, want [0, 31]", got)
	}
}

// TestIntervalsGuardRefinement: a branch guard i < 16 must narrow the value
// inside the guarded block even though the loop spans [0, 63].
func TestIntervalsGuardRefinement(t *testing.T) {
	f := llvm.NewFunction("guarded", llvm.Void())
	entry := f.AddBlock("entry")
	header := f.AddBlock("header")
	bodyTop := f.AddBlock("bodyTop")
	guarded := f.AddBlock("guarded")
	latch := f.AddBlock("latch")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	b.Br(header)
	b.SetBlock(header)
	iv := b.Phi(llvm.I64())
	cmp := b.ICmp("slt", iv, llvm.CI(llvm.I64(), 64))
	b.CondBr(cmp, bodyTop, exit)
	b.SetBlock(bodyTop)
	guard := b.ICmp("slt", iv, llvm.CI(llvm.I64(), 16))
	b.CondBr(guard, guarded, latch)
	b.SetBlock(guarded)
	b.Br(latch)
	b.SetBlock(latch)
	next := b.Add(iv, llvm.CI(llvm.I64(), 1))
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(nil)
	iv.AddIncoming(llvm.CI(llvm.I64(), 0), entry)
	iv.AddIncoming(next, latch)

	r := Intervals(loopsOf(f))
	if got := r.At(guarded, iv); !got.Equal(Range(0, 15)) {
		t.Errorf("guarded iv: got %s, want [0, 15]", got)
	}
	if got := r.At(bodyTop, iv); !got.Equal(Range(0, 63)) {
		t.Errorf("bodyTop iv: got %s, want [0, 63]", got)
	}
}

// TestIntervalsInfeasibleEdge: a constant-false condition makes its block
// unreachable to the analysis while staying CFG-reachable.
func TestIntervalsInfeasibleEdge(t *testing.T) {
	f := llvm.NewFunction("dead", llvm.Void())
	entry := f.AddBlock("entry")
	deadB := f.AddBlock("dead")
	tail := f.AddBlock("tail")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	cmp := b.ICmp("slt", llvm.CI(llvm.I64(), 5), llvm.CI(llvm.I64(), 3))
	b.CondBr(cmp, deadB, tail)
	b.SetBlock(deadB)
	b.Br(tail)
	b.SetBlock(tail)
	b.Ret(nil)

	r := Intervals(loopsOf(f))
	if !r.Unreachable(deadB) {
		t.Error("dead block should be unreachable to the interval analysis")
	}
	if r.Unreachable(tail) {
		t.Error("tail is reachable")
	}
}

// TestIntervalsNonAffine: `and iv, 15` is not affine in the induction
// variable but is still bounded — the case the interval analysis adds over
// the old induction-only reasoning.
func TestIntervalsNonAffine(t *testing.T) {
	f, _, body := buildCountedLoop(t, "slt", 0, 1, 64)
	// Append masked = and iv, 15 to the body.
	iv := f.FindBlock("header").Instrs[0]
	b := llvm.NewBuilder(f)
	masked := &llvm.Instr{Op: llvm.OpAnd, Ty: llvm.I64(), Args: []llvm.Value{iv, llvm.CI(llvm.I64(), 15)}}
	masked.Name = b.NewName()
	body.InsertBefore(masked, body.Terminator())

	r := Intervals(loopsOf(f))
	if got := r.At(body, masked); !got.Equal(Range(0, 15)) {
		t.Errorf("and-masked: got %s, want [0, 15]", got)
	}
}
