package cgen_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// emitGoldenReport digests the C++ flow's emitted source (Result.CSource)
// for every polybench kernel × dse.Space() at MINI and SMALL and every
// kgen corpus kernel × dse.Space(), one line per job.
func emitGoldenReport(t *testing.T) string {
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
	tgt := hls.DefaultTarget()
	for _, k := range kernels {
		for _, c := range dse.Space() {
			res, err := flow.CxxFlow(k.build(), k.top, c.D, tgt)
			if err != nil {
				t.Fatalf("%s %s %s: %v", k.group, k.top, c.Label, err)
			}
			sum := sha256.Sum256([]byte(res.CSource))
			fmt.Fprintf(&sb, "%s %s %s %x\n", k.group, k.top, c.Label, sum[:12])
		}
	}
	return sb.String()
}

// TestEmitGolden pins the emitted HLS C++ of every job above to digests
// recorded before emit-hlscpp stopped formatting through fmt: the text the
// C frontend reads must stay byte-identical, so the golden is a fixed
// record with no regenerate switch.
func TestEmitGolden(t *testing.T) {
	got := emitGoldenReport(t)
	want, err := os.ReadFile(filepath.Join("testdata", "emit_golden.txt"))
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
			t.Fatalf("emit golden drift at line %d:\n got  %s\n want %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("emit golden has %d lines, report %d", len(wl), len(gl))
}
