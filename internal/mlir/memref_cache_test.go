package mlir_test

import (
	"testing"

	"repro/internal/mlir"
	"repro/internal/polybench"
)

// TestMemRefCacheHoldsEveryKernel: after every kernel is built at MINI and
// at SMALL, rebuilding them all hits the memref type cache for every
// argument type — no two of the kernels' types evict each other — and
// shapes that agree in the low bits of every dimension stay resident
// together.
func TestMemRefCacheHoldsEveryKernel(t *testing.T) {
	build := func() []*mlir.Type {
		var types []*mlir.Type
		for _, size := range []string{"MINI", "SMALL"} {
			for _, k := range polybench.All() {
				s, err := k.SizeOf(size)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range mlir.FuncBody(k.Build(s).FindFunc(k.Name)).Args {
					types = append(types, a.Type())
				}
			}
		}
		return types
	}
	first, again := build(), build()
	for i, ty := range first {
		if again[i] != ty {
			t.Errorf("%s was rebuilt: the cache dropped it while the kernels were built", ty)
		}
	}
	for _, pair := range [][2][]int64{{{1, 7}, {257, 7}}, {{6, 8}, {8, 10}}} {
		a, b := mlir.MemRef(pair[0], mlir.F32()), mlir.MemRef(pair[1], mlir.F32())
		if mlir.MemRef(pair[0], mlir.F32()) != a || mlir.MemRef(pair[1], mlir.F32()) != b {
			t.Errorf("%s and %s are not both resident", a, b)
		}
	}
}
