package engine_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir/passes"
)

// keyGoldenMLIR stands in for hand-written MLIR input: its sha256 is the
// cache scope such a job carries.
const keyGoldenMLIR = `module {
  func.func @axpy(%arg0: memref<16xf32>, %arg1: memref<16xf32>) {
    affine.for %1 = 0 to 16 step 1 {
      %2 = affine.load %arg0[%1] : memref<16xf32>
      %3 = affine.load %arg1[%1] : memref<16xf32>
      %4 = arith.addf %2, %3 : f32
      affine.store %4, %arg1[%1] : memref<16xf32>
    }
    func.return
  }
}
`

// keyGoldenReport renders engine.Key for both flow kinds × dse.Space() ×
// {default target, 5 ns clock, inferred cost model} × {verify off, on} ×
// {gemm at MINI, gemm at SMALL, one MLIR scope}, plus directive spellings
// outside the space that share or split a normal form.
func keyGoldenReport() string {
	var sb strings.Builder
	line := func(job engine.Job, tgtName, label string) {
		fmt.Fprintf(&sb, "%s %s %s %s verify=%t %s %s\n", job.Kind, job.Top,
			scopeName(job.CacheScope), tgtName, job.VerifySemantics, label, engine.Key(job))
	}
	type namedTarget struct {
		name string
		tgt  hls.Target
	}
	fast := hls.DefaultTarget()
	fast.ClockNs = 5
	inferred := hls.DefaultTarget()
	inferred.CostModel = hls.CostInferred
	targets := []namedTarget{{"default", hls.DefaultTarget()}, {"clock5", fast}, {"inferred", inferred}}
	inputs := []struct{ top, scope string }{
		{"gemm", "MINI"},
		{"gemm", "SMALL"},
		{"axpy", fmt.Sprintf("%x", sha256.Sum256([]byte(keyGoldenMLIR)))},
	}
	kinds := []engine.Kind{engine.KindAdaptor, engine.KindCxx}
	for _, kind := range kinds {
		for _, in := range inputs {
			for _, tg := range targets {
				for _, verify := range []bool{false, true} {
					for _, c := range dse.Space() {
						line(engine.Job{Kind: kind, Top: in.top, CacheScope: in.scope,
							Directives: c.D, Target: tg.tgt, VerifySemantics: verify}, tg.name, c.Label)
					}
				}
			}
		}
	}
	edges := []struct {
		label string
		d     flow.Directives
	}{
		{"pipeII0", flow.Directives{Pipeline: true}},
		{"pipeII-3", flow.Directives{Pipeline: true, II: -3}},
		{"pipeII3", flow.Directives{Pipeline: true, II: 3}},
		{"nopipeII4", flow.Directives{II: 4}},
		{"unroll1", flow.Directives{Unroll: 1}},
		{"unroll-2", flow.Directives{Unroll: -2}},
		{"unroll8", flow.Directives{Unroll: 8}},
		{"flat", flow.Directives{Flatten: true}},
		{"dataflow", flow.Directives{Dataflow: true}},
		{"block3dim1", flow.Directives{Partition: &passes.PartitionSpec{Kind: "block", Factor: 3, Dim: 1}}},
		{"complete", flow.Directives{Partition: &passes.PartitionSpec{Kind: "complete"}}},
		{"all", flow.Directives{Pipeline: true, II: 2, Unroll: 4, Flatten: true, Dataflow: true,
			Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 4, Dim: 2}}},
	}
	for _, kind := range kinds {
		for _, e := range edges {
			line(engine.Job{Kind: kind, Top: "gemm", CacheScope: "MINI", Directives: e.d,
				Target: hls.DefaultTarget()}, "default", e.label)
		}
	}
	return sb.String()
}

func scopeName(scope string) string {
	if len(scope) == 64 {
		return "mlir"
	}
	return scope
}

// TestKeyGolden pins engine.Key byte for byte: persistent result stores
// and DSE journals are keyed by it, so a key that moves orphans every
// record written before. The golden is a fixed record with no regenerate
// switch.
func TestKeyGolden(t *testing.T) {
	got := keyGoldenReport()
	want, err := os.ReadFile(filepath.Join("testdata", "key_golden.txt"))
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
			t.Fatalf("key golden drift at line %d:\n got  %s\n want %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("key golden has %d lines, report %d", len(wl), len(gl))
}
