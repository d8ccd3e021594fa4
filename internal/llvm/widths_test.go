package llvm_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/llvm"
	"repro/internal/llvm/parser"
)

// TestParserRejectsUnrunnableWidths: the .ll parser accepts integer types
// of 1 to 64 bits, the widths every layer computes in, and rejects any
// other with a positioned parse error before the width is interned.
func TestParserRejectsUnrunnableWidths(t *testing.T) {
	src := func(ty string) string {
		return fmt.Sprintf("define void @k(%s %%x) {\nentry:\n  %%y = add %s %%x, 1\n  ret void\n}\n", ty, ty)
	}
	for _, ty := range []string{"i0", "i65", "i99999999"} {
		_, err := parser.Parse(src(ty))
		if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), ty) {
			t.Errorf("%s: parse error %v, want one at line 1 naming the type", ty, err)
		}
		bits, _ := strconv.Atoi(ty[1:])
		if llvm.IntTypeInterned(bits) {
			t.Errorf("%s: the rejected width was interned", ty)
		}
	}
	for _, ty := range []string{"i1", "i7", "i64"} {
		m, err := parser.Parse(src(ty))
		if err != nil {
			t.Errorf("%s: %v", ty, err)
			continue
		}
		if got := m.FindFunc("k").Params[0].Ty.String(); got != ty {
			t.Errorf("%s parsed as %s", ty, got)
		}
	}
}
