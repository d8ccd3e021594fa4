package mlir

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   *Type
		want string
	}{
		{I32(), "i32"},
		{I64(), "i64"},
		{I1(), "i1"},
		{IntType(8), "i8"},
		{F32(), "f32"},
		{F64(), "f64"},
		{Index(), "index"},
		{None(), "none"},
		{MemRef([]int64{32}, F32()), "memref<32xf32>"},
		{MemRef([]int64{4, 8}, F64()), "memref<4x8xf64>"},
		{MemRef([]int64{DynamicDim, 8}, I32()), "memref<?x8xi32>"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if got := c.ty.spell(); got != c.want {
			t.Errorf("spell() = %q, want %q", got, c.want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !I32().Equal(IntType(32)) {
		t.Error("i32 should equal IntType(32)")
	}
	if I32().Equal(I64()) {
		t.Error("i32 should not equal i64")
	}
	if F32().Equal(I32()) {
		t.Error("f32 should not equal i32")
	}
	a := MemRef([]int64{2, 3}, F32())
	b := MemRef([]int64{2, 3}, F32())
	c := MemRef([]int64{3, 2}, F32())
	d := MemRef([]int64{2, 3}, F64())
	if !a.Equal(b) {
		t.Error("identical memrefs should be equal")
	}
	if a.Equal(c) {
		t.Error("different shapes should not be equal")
	}
	if a.Equal(d) {
		t.Error("different element types should not be equal")
	}
	if a.Equal(nil) {
		t.Error("memref should not equal nil")
	}
}

func TestMemRefPredicates(t *testing.T) {
	st := MemRef([]int64{4, 4}, F32())
	dy := MemRef([]int64{DynamicDim, 4}, F32())
	if !st.HasStaticShape() {
		t.Error("static memref misreported")
	}
	if dy.HasStaticShape() {
		t.Error("dynamic memref misreported as static")
	}
	if st.NumElements() != 16 {
		t.Errorf("NumElements = %d, want 16", st.NumElements())
	}
	if !st.IsMemRef() || st.IsInt() || st.IsFloat() || st.IsIndex() {
		t.Error("memref kind predicates wrong")
	}
	if !Index().IsIntOrIndex() || !I32().IsIntOrIndex() || F32().IsIntOrIndex() {
		t.Error("IsIntOrIndex wrong")
	}
}

func TestNumElementsPanicsOnDynamic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NumElements on dynamic shape should panic")
		}
	}()
	MemRef([]int64{DynamicDim}, F32()).NumElements()
}

func TestMemRefShapeCopied(t *testing.T) {
	shape := []int64{2, 3}
	ty := MemRef(shape, F32())
	shape[0] = 99
	if ty.Shape[0] != 2 {
		t.Error("MemRef must copy its shape slice")
	}
}

func TestTypeEqualQuick(t *testing.T) {
	// Property: two memrefs built from the same (bounded) description are
	// equal; flipping any dimension breaks equality.
	f := func(dims []uint8, elemIs64 bool) bool {
		if len(dims) == 0 || len(dims) > 4 {
			return true
		}
		shape := make([]int64, len(dims))
		for i, d := range dims {
			shape[i] = int64(d%16) + 1
		}
		elem := F32()
		if elemIs64 {
			elem = F64()
		}
		a := MemRef(shape, elem)
		b := MemRef(shape, elem)
		if !a.Equal(b) {
			return false
		}
		shape2 := make([]int64, len(shape))
		copy(shape2, shape)
		shape2[0]++
		return !a.Equal(MemRef(shape2, elem))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMemRefTableBounded builds far more distinct memref types than the
// type cache has slots, as a long-lived service fed untrusted MLIR does:
// the cache must keep its fixed size and hold on to no more than that many
// types, while a repeated shape still hits and an evicted one is rebuilt
// equal.
func TestMemRefTableBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 20000
	first := MemRef([]int64{1 << 40}, F32())
	for i := 0; i < n; i++ {
		MemRef([]int64{int64(i) + 1, 7}, F32())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// At a few hundred bytes per type, keeping all of them would hold
	// several megabytes.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("%d distinct memref types left %d more live heap bytes", n, grown)
	}
	held := 0
	for i := range memrefTypes {
		if memrefTypes[i].Load() != nil {
			held++
		}
	}
	if held > memrefSlots {
		t.Errorf("cache holds %d types, more than its %d slots", held, memrefSlots)
	}
	again := MemRef([]int64{1 << 40}, F32())
	if !again.Equal(first) || again.String() != "memref<1099511627776xf32>" {
		t.Errorf("rebuilt type %s differs from %s", again, first)
	}
	if MemRef([]int64{1 << 40}, F32()) != again {
		t.Error("a repeated shape missed the cache")
	}
}
