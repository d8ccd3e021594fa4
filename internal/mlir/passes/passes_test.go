package passes

import (
	"math/rand"
	"testing"

	"repro/internal/mlir"
)

// buildMatMul builds a n x n f64 matmul: C += A*B.
func buildMatMul(n int64) *mlir.Module {
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{n, n}, mlir.F64())
	_, args := m.AddFunc("matmul", []*mlir.Type{ty, ty, ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("matmul")))
	b.AffineForConst(0, n, 1, func(b *mlir.Builder, i *mlir.Value) {
		b.AffineForConst(0, n, 1, func(b *mlir.Builder, j *mlir.Value) {
			b.AffineForConst(0, n, 1, func(b *mlir.Builder, k *mlir.Value) {
				a := b.AffineLoad(args[0], i, k)
				x := b.AffineLoad(args[1], k, j)
				c := b.AffineLoad(args[2], i, j)
				p := b.MulF(a, x)
				s := b.AddF(c, p)
				b.AffineStore(s, args[2], i, j)
			})
		})
	})
	b.Return()
	return m
}

// runMatMul interprets the module and returns C.
func runMatMul(t *testing.T, m *mlir.Module, n int64, seed int64) []float64 {
	t.Helper()
	ty := mlir.MemRef([]int64{n, n}, mlir.F64())
	A, B, C := mlir.NewMemBuf(ty), mlir.NewMemBuf(ty), mlir.NewMemBuf(ty)
	r := rand.New(rand.NewSource(seed))
	for i := range A.F {
		A.F[i] = r.Float64()
		B.F[i] = r.Float64()
		C.F[i] = r.Float64()
	}
	if err := m.Interpret("matmul", A, B, C); err != nil {
		t.Fatalf("interpret: %v", err)
	}
	return C.F
}

func sameFloats(t *testing.T, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("element %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func countOps(m *mlir.Module, name string) int {
	n := 0
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == name {
			n++
		}
		return true
	})
	return n
}

func TestCanonicalizeConstFold(t *testing.T) {
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{4}, mlir.F64())
	_, args := m.AddFunc("f", []*mlir.Type{ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("f")))
	c2 := b.ConstantFloat(2, mlir.F64())
	c3 := b.ConstantFloat(3, mlir.F64())
	s := b.AddF(c2, c3) // folds to 5
	i0 := b.ConstantIndex(0)
	i1 := b.ConstantIndex(1)
	idx := b.AddI(i0, i1) // folds to 1
	b.AffineStore(s, args[0], idx)
	b.Return()

	if err := Canonicalize().Run(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := countOps(m, mlir.OpAddF); n != 0 {
		t.Errorf("addf not folded (%d remain)", n)
	}
	if n := countOps(m, mlir.OpAddI); n != 0 {
		t.Errorf("addi not folded (%d remain)", n)
	}
	// Execute and check the folded program still stores 5 at index 1.
	buf := mlir.NewMemBuf(ty)
	if err := m.Interpret("f", buf); err != nil {
		t.Fatal(err)
	}
	if buf.F[1] != 5 {
		t.Errorf("folded store wrote %g, want 5", buf.F[1])
	}
}

func TestCanonicalizeIdentities(t *testing.T) {
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{4}, mlir.F64())
	_, args := m.AddFunc("g", []*mlir.Type{ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("g")))
	b.AffineForConst(0, 4, 1, func(b *mlir.Builder, i *mlir.Value) {
		x := b.AffineLoad(args[0], i)
		zero := b.ConstantFloat(0, mlir.F64())
		one := b.ConstantFloat(1, mlir.F64())
		y := b.AddF(x, zero) // x
		z := b.MulF(y, one)  // x
		b.AffineStore(z, args[0], i)
	})
	b.Return()
	if err := Canonicalize().Run(m); err != nil {
		t.Fatal(err)
	}
	if n := countOps(m, mlir.OpAddF) + countOps(m, mlir.OpMulF); n != 0 {
		t.Errorf("identities not simplified (%d float ops remain)", n)
	}
	if n := countOps(m, mlir.OpConstant); n != 0 {
		t.Errorf("dead constants not removed (%d remain)", n)
	}
}

func TestCanonicalizeSelectAndApply(t *testing.T) {
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{8}, mlir.F64())
	_, args := m.AddFunc("h", []*mlir.Type{ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("h")))
	i2 := b.ConstantIndex(2)
	i3 := b.ConstantIndex(3)
	cond := b.CmpI(mlir.PredSLT, i2, i3)                                               // true
	sel := b.Select(cond, i2, i3)                                                      // 2
	app := b.AffineApply(mlir.NewMap(1, 0, mlir.Add(mlir.Dim(0), mlir.Const(1))), sel) // 3
	v := b.ConstantFloat(7, mlir.F64())
	b.AffineStore(v, args[0], app)
	b.Return()
	if err := Canonicalize().Run(m); err != nil {
		t.Fatal(err)
	}
	if countOps(m, mlir.OpSelect) != 0 || countOps(m, mlir.OpCmpI) != 0 ||
		countOps(m, mlir.OpAffineApply) != 0 {
		t.Error("select/cmp/apply chain not fully folded")
	}
	buf := mlir.NewMemBuf(ty)
	if err := m.Interpret("h", buf); err != nil {
		t.Fatal(err)
	}
	if buf.F[3] != 7 {
		t.Errorf("store went to wrong place: %v", buf.F)
	}
}

func TestCSE(t *testing.T) {
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{4, 4}, mlir.F64())
	_, args := m.AddFunc("c", []*mlir.Type{ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("c")))
	b.AffineForConst(0, 4, 1, func(b *mlir.Builder, i *mlir.Value) {
		// Two identical loads (not CSE-able: memory) and two identical
		// adds over the same value (CSE-able).
		x1 := b.AffineLoad(args[0], i, i)
		_ = b.AffineLoad(args[0], i, i)
		s1 := b.AddF(x1, x1)
		s2 := b.AddF(x1, x1)
		tot := b.AddF(s1, s2)
		b.AffineStore(tot, args[0], i, i)
	})
	b.Return()
	before := countOps(m, mlir.OpAddF)
	if err := CSE().Run(m); err != nil {
		t.Fatal(err)
	}
	if err := Canonicalize().Run(m); err != nil { // clean dead dupes
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	after := countOps(m, mlir.OpAddF)
	if after >= before {
		t.Errorf("CSE did not reduce addf count: before=%d after=%d", before, after)
	}
	// affine.load is not pure (memory), so loads must NOT be CSEd by this
	// pass... they are pure reads but stores in the loop could alias; the
	// conservative choice is to keep them.
	if n := countOps(m, mlir.OpAffineLoad); n != 2 {
		t.Errorf("loads should be preserved, have %d", n)
	}
}

func TestCSEScopedAcrossRegions(t *testing.T) {
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{4}, mlir.F64())
	_, args := m.AddFunc("s", []*mlir.Type{ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("s")))
	one := b.ConstantFloat(1, mlir.F64())
	_ = one
	b.AffineForConst(0, 4, 1, func(b *mlir.Builder, i *mlir.Value) {
		inner := b.ConstantFloat(1, mlir.F64()) // dupe of outer constant
		b.AffineStore(inner, args[0], i)
	})
	b.Return()
	if err := CSE().Run(m); err != nil {
		t.Fatal(err)
	}
	if err := Canonicalize().Run(m); err != nil {
		t.Fatal(err)
	}
	if n := countOps(m, mlir.OpConstant); n != 1 {
		t.Errorf("constant not CSEd across region boundary: %d remain", n)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	const n = 6
	ref := runMatMul(t, buildMatMul(n), n, 42)
	for _, factor := range []int{2, 3, 4, 8} {
		m := buildMatMul(n)
		if err := LoopUnroll(factor, false).Run(m); err != nil {
			t.Fatalf("unroll %d: %v", factor, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("unroll %d: verify: %v", factor, err)
		}
		got := runMatMul(t, m, n, 42)
		sameFloats(t, ref, got)
	}
}

func TestUnrollFactorStructure(t *testing.T) {
	m := buildMatMul(8)
	if err := LoopUnroll(4, false).Run(m); err != nil {
		t.Fatal(err)
	}
	// Innermost loop (k) unrolled by 4: 8/4 = 2 iterations; body has 4 copies
	// of 3 loads + 1 store.
	if n := countOps(m, mlir.OpAffineLoad); n != 12 {
		t.Errorf("unrolled body should have 12 loads, got %d", n)
	}
	// 8 % 4 == 0, so no epilogue loop: still 3 loops total.
	if n := countOps(m, mlir.OpAffineFor); n != 3 {
		t.Errorf("want 3 loops after divisible unroll, got %d", n)
	}
}

func TestUnrollRemainderEpilogue(t *testing.T) {
	const n = 7
	ref := runMatMul(t, buildMatMul(n), n, 9)
	m := buildMatMul(n)
	if err := LoopUnroll(2, false).Run(m); err != nil {
		t.Fatal(err)
	}
	// 7 = 3*2 + 1: main loop + epilogue → 4 loops total.
	if c := countOps(m, mlir.OpAffineFor); c != 4 {
		t.Errorf("want 4 loops (epilogue), got %d", c)
	}
	got := runMatMul(t, m, n, 9)
	sameFloats(t, ref, got)
}

func TestFullUnroll(t *testing.T) {
	const n = 3
	ref := runMatMul(t, buildMatMul(n), n, 5)
	m := buildMatMul(n)
	if err := LoopUnroll(64, false).Run(m); err != nil {
		t.Fatal(err)
	}
	// Innermost loop fully unrolled: only 2 loops remain.
	if c := countOps(m, mlir.OpAffineFor); c != 2 {
		t.Errorf("want 2 loops after full unroll, got %d", c)
	}
	got := runMatMul(t, m, n, 5)
	sameFloats(t, ref, got)
}

func TestMarkedUnroll(t *testing.T) {
	m := buildMatMul(4)
	pm := NewPassManager().Add(MarkUnroll(2), LoopUnroll(0, true))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	ref := runMatMul(t, buildMatMul(4), 4, 1)
	got := runMatMul(t, m, 4, 1)
	sameFloats(t, ref, got)
	// Directive must be consumed.
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.HasAttr(mlir.AttrUnroll) {
			t.Error("hls.unroll directive not consumed")
		}
		return true
	})
}

func TestPipelineDirective(t *testing.T) {
	m := buildMatMul(4)
	if err := PipelineInnermost(1).Run(m); err != nil {
		t.Fatal(err)
	}
	marked := 0
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.HasAttr(mlir.AttrPipeline) {
			marked++
			if !isInnermostLoop(o) {
				t.Error("pipeline directive on non-innermost loop")
			}
			if ii, ok := o.IntAttr(mlir.AttrII); !ok || ii != 1 {
				t.Error("ii attribute wrong")
			}
		}
		return true
	})
	if marked != 1 {
		t.Errorf("want 1 pipelined loop, got %d", marked)
	}
}

func TestPartitionDirectives(t *testing.T) {
	m := buildMatMul(4)
	spec := PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 1}
	pm := NewPassManager().Add(
		PartitionArg("matmul", 0, spec),
		MarkTop("matmul"),
	)
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("matmul")
	if !f.HasAttr(mlir.AttrTopFunc) {
		t.Error("top attribute missing")
	}
	got, ok := ParsePartitionAttr(f.Attr(PartitionArgAttrKey(0)))
	if !ok || got != spec {
		t.Errorf("partition attr round trip failed: %+v ok=%v", got, ok)
	}
	if err := PartitionArg("matmul", 9, spec).Run(m); err == nil {
		t.Error("out-of-range partition should error")
	}
}

func TestPartitionAllArgs(t *testing.T) {
	m := buildMatMul(4)
	spec := PartitionSpec{Kind: "complete", Factor: 0, Dim: 0}
	if err := PartitionAllArgs(spec).Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("matmul")
	for i := 0; i < 3; i++ {
		if _, ok := ParsePartitionAttr(f.Attr(PartitionArgAttrKey(i))); !ok {
			t.Errorf("arg %d missing partition attr", i)
		}
	}
}

func TestPassManagerVerifies(t *testing.T) {
	breaker := funcPass{name: "breaker", fn: func(f *mlir.Op) error {
		// Corrupt the IR: remove the terminator.
		body := mlir.FuncBody(f)
		body.Remove(body.Terminator())
		// Add an op using an undefined value would be caught; removing a
		// loop terminator is caught by the affine.for check instead. Here
		// func body has no explicit terminator requirement, so instead break
		// an affine.for.
		mlir.Walk(f, func(o *mlir.Op) bool {
			if o.Name == mlir.OpAffineFor {
				b := o.Regions[0].Blocks[0]
				b.Remove(b.Terminator())
				return false
			}
			return true
		})
		return nil
	}}
	m := buildMatMul(2)
	pm := NewPassManager().Add(breaker)
	if err := pm.Run(m); err == nil {
		t.Error("pass manager should catch broken IR")
	}
}
