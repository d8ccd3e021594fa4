package mlir_test

import (
	"testing"

	"repro/internal/polybench"
)

// TestVerifyAllocs pins the verifier's allocation budget on valid modules:
// the walk keeps its scope in stamps on the values, not in a set.
func TestVerifyAllocs(t *testing.T) {
	for _, k := range polybench.All() {
		s, err := k.SizeOf("SMALL")
		if err != nil {
			t.Fatal(err)
		}
		m := k.Build(s)
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = m.Verify() }); n > 1 {
			t.Errorf("%s: Verify makes %.0f allocations, want at most 1", k.Name, n)
		}
	}
}
