package lower_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// loweringGoldenReport digests the printed module entering the unit
// (stage, pass) in the adaptor flow's front half for every polybench
// kernel × dse.Space() at MINI and SMALL and every kgen corpus kernel ×
// dse.Space(): entering lowering/scf-to-cf is what AffineToSCF leaves,
// entering translate/translate what SCFToCF leaves.
func loweringGoldenReport(t *testing.T, stage, pass string) string {
	t.Helper()
	type kernel struct {
		group, top string
		build      func() *mlir.Module
	}
	var kernels []kernel
	for _, size := range []string{"MINI", "SMALL"} {
		for _, k := range polybench.All() {
			s, err := k.SizeOf(size)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, kernel{"polybench-" + size, k.Name, func() *mlir.Module { return k.Build(s) }})
		}
	}
	for _, k := range kgen.CorpusKernels() {
		kernels = append(kernels, kernel{"kgen", k.Name, k.Build})
	}
	var sb strings.Builder
	for _, k := range kernels {
		for _, c := range dse.Space() {
			var lowered string
			observe := func(s, p, ir string) {
				if s == stage && p == pass {
					lowered = ir
				}
			}
			if _, _, err := flow.RawFlowWith(k.build(), k.top, c.D, flow.Options{Observer: observe}); err != nil {
				t.Fatalf("%s %s %s: %v", k.group, k.top, c.Label, err)
			}
			if lowered == "" {
				t.Fatalf("%s %s %s: %s/%s never ran", k.group, k.top, c.Label, stage, pass)
			}
			sum := sha256.Sum256([]byte(lowered))
			fmt.Fprintf(&sb, "%s %s %s %x\n", k.group, k.top, c.Label, sum[:12])
		}
	}
	return sb.String()
}

// TestAffineLoweringGolden pins the printed module after AffineToSCF to
// digests recorded with the lowering that restarted its walk after every
// op it lowered and replaced each affine.load's uses across the function:
// the one-pass lowering must leave byte-identical IR, so the golden is a
// fixed record with no regenerate switch.
func TestAffineLoweringGolden(t *testing.T) {
	checkLoweringGolden(t, loweringGoldenReport(t, "lowering", "scf-to-cf"), "affine_golden.txt")
}

// TestSCFToCFLoweringGolden pins the printed module after SCFToCF to
// digests recorded with the lowering that rescanned the function from its
// first block after every op it lowered and replaced each loop's induction
// variable across the whole function. No regenerate switch.
func TestSCFToCFLoweringGolden(t *testing.T) {
	checkLoweringGolden(t, loweringGoldenReport(t, "translate", "translate"), "scftocf_golden.txt")
}

func checkLoweringGolden(t *testing.T, got, file string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
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
			t.Fatalf("%s drift at line %d:\n got  %s\n want %s", file, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s has %d lines, report %d", file, len(wl), len(gl))
}
