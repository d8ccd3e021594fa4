package deptest_test

import (
	"strings"
	"testing"

	"repro/internal/deptest"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// loopFixture is a built single loop with its engine and the store/load pair
// under test.
type loopFixture struct {
	eng    *deptest.Engine
	loop   *analysis.Loop
	st, ld *llvm.Instr
}

// singleLoop builds a canonical counted loop over a pointer-to-[n x float]
// parameter: for (i = 0; i < trip; i++) { arr[stIdx(i)] = arr[ldIdx(i)] }.
// The load is emitted first (source order load-then-store, like a real
// read-modify-write body).
func singleLoop(t *testing.T, trip, n int64,
	stIdx, ldIdx func(b *llvm.Builder, iv llvm.Value) llvm.Value) loopFixture {
	t.Helper()
	arrTy := llvm.ArrayOf(n, llvm.FloatT())
	arr := &llvm.Param{Name: "arr", Ty: llvm.Ptr(arrTy)}
	f := llvm.NewFunction("loop", llvm.Void(), arr)
	entry := f.AddBlock("entry")
	h := f.AddBlock("h")
	bb := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Br(h)
	b.SetBlock(h)
	iv := b.Phi(llvm.I64())
	cond := b.ICmp("slt", iv, llvm.CI(llvm.I64(), trip))
	b.CondBr(cond, bb, exit)
	b.SetBlock(bb)
	lp := b.GEP(arrTy, arr, llvm.CI(llvm.I64(), 0), ldIdx(b, iv))
	ld := b.Load(llvm.FloatT(), lp)
	sp := b.GEP(arrTy, arr, llvm.CI(llvm.I64(), 0), stIdx(b, iv))
	st := b.Store(ld, sp)
	next := b.Add(iv, llvm.CI(llvm.I64(), 1))
	b.Br(h)
	b.SetBlock(exit)
	b.Ret(nil)
	iv.AddIncoming(llvm.CI(llvm.I64(), 0), entry)
	iv.AddIncoming(next, bb)
	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	cfg := analysis.NewCFG(f)
	li := analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
	l := li.ByHeader(h)
	if l == nil {
		t.Fatal("fixture loop not recovered")
	}
	return loopFixture{
		eng:  deptest.New(li, nil),
		loop: l, st: st, ld: ld,
	}
}

func ci(v int64) llvm.Value { return llvm.CI(llvm.I64(), v) }

// TestCarriedKnownAnswers drives the test hierarchy — ZIV, strong-SIV,
// weak-SIV, MIV classification with the exact-distance, GCD, and Banerjee
// deciders — through subscript pairs with known answers.
func TestCarriedKnownAnswers(t *testing.T) {
	cases := []struct {
		name      string
		trip, n   int64
		stIdx     func(b *llvm.Builder, iv llvm.Value) llvm.Value
		ldIdx     func(b *llvm.Builder, iv llvm.Value) llvm.Value
		wantRes   deptest.Result
		wantDist  int64
		wantExact bool
		wantTest  string // must appear in Tests
	}{
		{
			// arr[0] = arr[0]: the loop-invariant accumulation cell, a
			// distance-1 recurrence every iteration.
			name: "ziv-same-cell", trip: 16, n: 16,
			stIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return ci(0) },
			ldIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return ci(0) },
			wantRes: deptest.Dependent, wantDist: 1, wantExact: true, wantTest: "ziv",
		},
		{
			// arr[0] = arr[1]: distinct constant cells never collide.
			name: "ziv-distinct-cells", trip: 16, n: 16,
			stIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return ci(0) },
			ldIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return ci(1) },
			wantRes: deptest.Independent, wantTest: "ziv",
		},
		{
			// arr[i] = arr[i-1]: the classic distance-1 stream recurrence.
			name: "strong-siv-distance-1", trip: 16, n: 16,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Sub(iv, ci(1))
			},
			wantRes: deptest.Dependent, wantDist: 1, wantExact: true, wantTest: "strong-siv",
		},
		{
			// arr[i] = arr[i-3]: exact distance 3.
			name: "strong-siv-distance-3", trip: 16, n: 16,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Sub(iv, ci(3))
			},
			wantRes: deptest.Dependent, wantDist: 3, wantExact: true, wantTest: "strong-siv",
		},
		{
			// arr[i] = arr[i]: same location only within one iteration — no
			// loop-carried flow dependence (this is the pair the structural
			// model could not exonerate without the IV-dependence heuristic).
			name: "strong-siv-distance-0", trip: 16, n: 16,
			stIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
			ldIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
			wantRes: deptest.Independent, wantTest: "strong-siv",
		},
		{
			// arr[i] = arr[i+1]: the value read was never written by an
			// EARLIER iteration's store (the dependence is anti, not flow).
			name: "strong-siv-negative-distance", trip: 16, n: 16,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Add(iv, ci(1))
			},
			wantRes: deptest.Independent, wantTest: "strong-siv",
		},
		{
			// arr[2i] = arr[2i+1]: evens never meet odds — the distance
			// equation 2d = 1 has no integer solution.
			name: "same-coef-parity", trip: 8, n: 17,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Mul(iv, ci(2))
			},
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Add(b.Mul(iv, ci(2)), ci(1))
			},
			wantRes: deptest.Independent, wantTest: "strong-siv",
		},
		{
			// arr[4i] = arr[2i+1]: unequal coefficients, gcd(2,4,2)=2 does
			// not divide the constant 1 — the GCD test kills it.
			name: "gcd-infeasible", trip: 8, n: 33,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Mul(iv, ci(4))
			},
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Add(b.Mul(iv, ci(2)), ci(1))
			},
			wantRes: deptest.Independent, wantTest: "gcd",
		},
		{
			// arr[2i] = arr[i+40], trip 16: integer solutions exist (gcd=1)
			// but none within the iteration space — only the Banerjee bounds
			// test over [0, 15] can exclude it.
			name: "banerjee-infeasible", trip: 16, n: 80,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Mul(iv, ci(2))
			},
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Add(iv, ci(40))
			},
			wantRes: deptest.Independent, wantTest: "banerjee",
		},
		{
			// arr[2i] = arr[i]: a weak-SIV pair with real collisions
			// (store at i=2 writes arr[4], load at i=4 reads it) but no
			// single distance — reported as a conservative direction-only
			// dependence at the minimum distance 1.
			name: "weak-siv-feasible", trip: 16, n: 32,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Mul(iv, ci(2))
			},
			ldIdx:   func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
			wantRes: deptest.Dependent, wantDist: 1, wantExact: false, wantTest: "weak-siv",
		},
		{
			// Shifted linearized form: arr[8i] = arr[8i-8] via shl — the
			// adaptor's flattened addressing idiom; exact distance 1.
			name: "shl-linearized", trip: 8, n: 64,
			stIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Binary(llvm.OpShl, iv, ci(3))
			},
			ldIdx: func(b *llvm.Builder, iv llvm.Value) llvm.Value {
				return b.Sub(b.Binary(llvm.OpShl, iv, ci(3)), ci(8))
			},
			wantRes: deptest.Dependent, wantDist: 1, wantExact: true, wantTest: "strong-siv",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fx := singleLoop(t, tc.trip, tc.n, tc.stIdx, tc.ldIdx)
			cd := fx.eng.Carried(fx.loop, fx.st, fx.ld)
			if cd.Res != tc.wantRes {
				t.Fatalf("Carried = %v (tests %v), want %v", cd.Res, cd.Tests, tc.wantRes)
			}
			if tc.wantRes == deptest.Dependent {
				if cd.Dist != tc.wantDist || cd.Exact != tc.wantExact {
					t.Errorf("dist=%d exact=%v, want dist=%d exact=%v (tests %v)",
						cd.Dist, cd.Exact, tc.wantDist, tc.wantExact, cd.Tests)
				}
			}
			if !hasTest(cd.Tests, tc.wantTest) {
				t.Errorf("tests %v missing %q", cd.Tests, tc.wantTest)
			}
		})
	}
}

func hasTest(tests []string, want string) bool {
	for _, tt := range tests {
		if tt == want {
			return true
		}
	}
	return false
}

// nestFixture is a built two-deep nest (i outer, j inner) with multi-dim
// accesses A[stI][stJ] = A[ldI][ldJ] over an [8 x [8 x float]] parameter.
type nestFixture struct {
	eng          *deptest.Engine
	outer, inner *analysis.Loop
	st, ld       *llvm.Instr
}

func doubleLoop(t *testing.T, trip int64,
	stI, stJ, ldI, ldJ func(b *llvm.Builder, i, j llvm.Value) llvm.Value) nestFixture {
	t.Helper()
	rowTy := llvm.ArrayOf(8, llvm.FloatT())
	arrTy := llvm.ArrayOf(8, rowTy)
	arr := &llvm.Param{Name: "A", Ty: llvm.Ptr(arrTy)}
	f := llvm.NewFunction("nest", llvm.Void(), arr)
	entry := f.AddBlock("entry")
	hi := f.AddBlock("hi")
	hj := f.AddBlock("hj")
	body := f.AddBlock("body")
	latchI := f.AddBlock("latch.i")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Br(hi)
	b.SetBlock(hi)
	i := b.Phi(llvm.I64())
	condI := b.ICmp("slt", i, llvm.CI(llvm.I64(), trip))
	b.CondBr(condI, hj, exit)
	b.SetBlock(hj)
	j := b.Phi(llvm.I64())
	condJ := b.ICmp("slt", j, llvm.CI(llvm.I64(), trip))
	b.CondBr(condJ, body, latchI)
	b.SetBlock(body)
	lp := b.GEP(arrTy, arr, ci(0), ldI(b, i, j), ldJ(b, i, j))
	ld := b.Load(llvm.FloatT(), lp)
	sp := b.GEP(arrTy, arr, ci(0), stI(b, i, j), stJ(b, i, j))
	st := b.Store(ld, sp)
	nextJ := b.Add(j, ci(1))
	b.Br(hj)
	b.SetBlock(latchI)
	nextI := b.Add(i, ci(1))
	b.Br(hi)
	b.SetBlock(exit)
	b.Ret(nil)
	i.AddIncoming(ci(0), entry)
	i.AddIncoming(nextI, latchI)
	j.AddIncoming(ci(0), hi)
	j.AddIncoming(nextJ, body)
	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	cfg := analysis.NewCFG(f)
	li := analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
	outer, inner := li.ByHeader(hi), li.ByHeader(hj)
	if outer == nil || inner == nil {
		t.Fatal("fixture nest not recovered")
	}
	return nestFixture{
		eng:   deptest.New(li, nil),
		outer: outer, inner: inner, st: st, ld: ld,
	}
}

func keepI(b *llvm.Builder, i, j llvm.Value) llvm.Value { return i }
func keepJ(b *llvm.Builder, i, j llvm.Value) llvm.Value { return j }

// TestCarriedNestLevels: A[i][j] = A[i-1][j] is carried at the outer level
// with exact distance 1 and NOT at the inner level — the per-level query
// must exonerate the inner loop that the structural model would have left
// ambiguous.
func TestCarriedNestLevels(t *testing.T) {
	fx := doubleLoop(t, 8, keepI, keepJ,
		func(b *llvm.Builder, i, j llvm.Value) llvm.Value { return b.Sub(i, ci(1)) },
		keepJ)
	if cd := fx.eng.Carried(fx.outer, fx.st, fx.ld); cd.Res != deptest.Dependent ||
		!cd.Exact || cd.Dist != 1 {
		t.Errorf("outer: got %+v, want exact distance-1 dependence", cd)
	}
	if cd := fx.eng.Carried(fx.inner, fx.st, fx.ld); cd.Res != deptest.Independent {
		t.Errorf("inner: got %+v, want independent (different rows never meet at fixed i)", cd)
	}
}

// TestCarriedMIVLinearized: the adaptor's flattened form A[8i+j] =
// A[8i+j-8] (one MIV subscript) is carried at the outer level; the inner
// level is excluded because the needed distance 8 exceeds the j-trip of 8.
func TestCarriedMIVLinearized(t *testing.T) {
	fx := singleLoopMIV(t)
	if cd := fx.eng.Carried(fx.outer, fx.st, fx.ld); cd.Res != deptest.Dependent {
		t.Errorf("outer: got %+v, want dependent", cd)
	} else if !hasTest(cd.Tests, "miv") {
		t.Errorf("outer tests %v missing miv", cd.Tests)
	}
	if cd := fx.eng.Carried(fx.inner, fx.st, fx.ld); cd.Res != deptest.Independent {
		t.Errorf("inner: got %+v, want independent (distance 8 > trip-1)", cd)
	}
}

func singleLoopMIV(t *testing.T) nestFixture {
	t.Helper()
	rowTy := llvm.ArrayOf(64, llvm.FloatT())
	arr := &llvm.Param{Name: "A", Ty: llvm.Ptr(rowTy)}
	f := llvm.NewFunction("miv", llvm.Void(), arr)
	entry := f.AddBlock("entry")
	hi := f.AddBlock("hi")
	hj := f.AddBlock("hj")
	body := f.AddBlock("body")
	latchI := f.AddBlock("latch.i")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Br(hi)
	b.SetBlock(hi)
	i := b.Phi(llvm.I64())
	b.CondBr(b.ICmp("slt", i, ci(8)), hj, exit)
	b.SetBlock(hj)
	j := b.Phi(llvm.I64())
	b.CondBr(b.ICmp("slt", j, ci(8)), body, latchI)
	b.SetBlock(body)
	lin := b.Add(b.Mul(i, ci(8)), j)
	lp := b.GEP(rowTy, arr, ci(0), b.Sub(lin, ci(8)))
	ld := b.Load(llvm.FloatT(), lp)
	sp := b.GEP(rowTy, arr, ci(0), lin)
	st := b.Store(ld, sp)
	nextJ := b.Add(j, ci(1))
	b.Br(hj)
	b.SetBlock(latchI)
	nextI := b.Add(i, ci(1))
	b.Br(hi)
	b.SetBlock(exit)
	b.Ret(nil)
	i.AddIncoming(ci(0), entry)
	i.AddIncoming(nextI, latchI)
	j.AddIncoming(ci(0), hi)
	j.AddIncoming(nextJ, body)
	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	cfg := analysis.NewCFG(f)
	li := analysis.FindLoops(cfg, analysis.NewDomTree(cfg))
	return nestFixture{
		eng:   deptest.New(li, nil),
		outer: li.ByHeader(hi), inner: li.ByHeader(hj), st: st, ld: ld,
	}
}

// TestEdgesVectors: arr[i] = arr[i-1] produces a flow edge store→load with
// the exact vector (1), an anti edge (0) (the load precedes the store in
// the body), and no other feasible directions.
func TestEdgesVectors(t *testing.T) {
	fx := singleLoop(t, 16, 16,
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return b.Sub(iv, ci(1)) })
	edges := fx.eng.Edges(fx.loop)
	var flow, anti, output *deptest.Edge
	for k := range edges {
		ed := &edges[k]
		switch ed.Kind {
		case "flow":
			flow = ed
		case "anti":
			anti = ed
		case "output":
			output = ed
		}
	}
	if flow == nil || flow.Res != deptest.Dependent || len(flow.Vectors) != 1 ||
		flow.Vectors[0].String() != "(1)" {
		t.Errorf("flow edge: %+v, want one vector (1)", flow)
	}
	if anti == nil || anti.Res != deptest.Independent {
		t.Errorf("anti edge: %+v, want independent (arr[i-1] is never re-stored later)", anti)
	}
	if output == nil || output.Res != deptest.Independent {
		t.Errorf("output edge: %+v, want independent (each cell stored once)", output)
	}
}

// TestAccessForm: the rendered access functions drive diagnostics; check
// the shape on a shifted access.
func TestAccessForm(t *testing.T) {
	fx := singleLoop(t, 16, 16,
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv },
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return b.Sub(iv, ci(1)) })
	form, ok := fx.eng.AccessForm(fx.ld.Args[0])
	if !ok {
		t.Fatal("load access should be affine")
	}
	if !strings.Contains(form, "- 1") || !strings.Contains(form, "[") {
		t.Errorf("unexpected access form %q", form)
	}
	lo, hi, ok := fx.eng.IndexRange(fx.st.Args[1].(*llvm.Instr).Args[2])
	if !ok || lo != 0 || hi != 15 {
		t.Errorf("IndexRange = [%d, %d] ok=%v, want [0, 15]", lo, hi, ok)
	}
}

// TestNonAffineUnknown: products of two IVs are outside the model and must
// come back Unknown, never a wrong Independent.
func TestNonAffineUnknown(t *testing.T) {
	fx := singleLoop(t, 8, 64,
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return b.Mul(iv, iv) },
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return iv })
	if cd := fx.eng.Carried(fx.loop, fx.st, fx.ld); cd.Res != deptest.Unknown {
		t.Errorf("got %+v, want Unknown for a quadratic subscript", cd)
	}
}

// TestZeroTripIndependent: a loop that never runs carries nothing.
func TestZeroTripIndependent(t *testing.T) {
	fx := singleLoop(t, 0, 16,
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return ci(0) },
		func(b *llvm.Builder, iv llvm.Value) llvm.Value { return ci(0) })
	if cd := fx.eng.Carried(fx.loop, fx.st, fx.ld); cd.Res != deptest.Independent {
		t.Errorf("got %+v, want Independent for a zero-trip loop", cd)
	}
}
