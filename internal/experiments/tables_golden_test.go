package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// tablesGoldenReport renders every experiment whose cells are not
// timings (all but Table 4) at MINI, and Table 2 again at SMALL.
func tablesGoldenReport(t *testing.T) string {
	t.Helper()
	cfg := miniCfg(engine.New(engine.Options{Cache: true}))
	var sb strings.Builder
	for _, fn := range []func(Config) (*Table, error){Table1, Table2, Fig4, Fig5, Table3, Fig6, Fig7, Fig8} {
		tab, err := fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(tab.String())
	}
	small := cfg
	small.SizeName = "SMALL"
	tab, err := Table2(small)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(tab.String())
	return sb.String()
}

// TestTablesGolden pins the rendered experiment tables. It is a fixed
// record with no regenerate switch: a diff means an experiment's numbers
// or its job set changed.
func TestTablesGolden(t *testing.T) {
	got := tablesGoldenReport(t)
	want, err := os.ReadFile(filepath.Join("testdata", "tables_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("tables golden drift at line %d:\n got  %s\n want %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("tables golden has %d lines, report %d", len(wl), len(gl))
}
