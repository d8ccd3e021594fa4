package passes_test

import (
	"testing"

	"repro/internal/cfront"
	"repro/internal/lint"
)

// An uninitialized scalar carried around a loop reaches the loop header as
// undef from the entry and as a value defined later in the body from the
// latch. Mem2Reg must keep that phi: folding it to the body's value would
// use the value ahead of its definition.
func TestMem2RegKeepsUndefPhiOverLaterDefinition(t *testing.T) {
	src := `void k(float A[8]) { float t; for (int i = 0; i < 8; i++) { A[i] = t; t = A[i] + 1.0f; } }`
	m, err := cfront.Compile(src, cfront.Options{Top: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := lint.Invariants(m); err != nil {
		t.Fatalf("%v\n%s", err, m.Print())
	}
}
