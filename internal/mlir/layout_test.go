package mlir

import (
	"testing"
	"unsafe"
)

// TestNodeSizes: numbering walks stamp values in a field the verifier
// shares, so a Value stays 40 bytes and an op fused with its result
// (opNode) fills the 192-byte allocation size class exactly.
func TestNodeSizes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 40 {
		t.Errorf("Value is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(opNode{}); n != 192 {
		t.Errorf("opNode is %d bytes, want 192", n)
	}
}
