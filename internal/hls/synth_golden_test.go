package hls_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
)

// goldenTargets are the targets the report golden prices the MINI grid
// under besides the default: the address-folding ablation and a fast clock
// with single-port memories.
func goldenTargets() []struct {
	name string
	tgt  hls.Target
} {
	noFold := hls.DefaultTarget()
	noFold.DisableAddrFolding = true
	fast := hls.DefaultTarget()
	fast.ClockNs = 5
	fast.MemPorts = 1
	return []struct {
		name string
		tgt  hls.Target
	}{{"noaddrfold", noFold}, {"5ns1port", fast}}
}

// inferredLabels are the configurations the inferred cost model is priced
// on per kernel: one pipelined, one flattened and one unrolled. Its
// bitwidth analysis is the slow part, so it runs on this subset only.
var inferredLabels = map[string]bool{"pipeII1+part2": true, "pipeII1+flat": true, "unroll2": true}

// extraConfigs cover estimator paths dse.Space() never reaches: dataflow
// task overlap and complete partitioning.
func extraConfigs() []dse.Config {
	return []dse.Config{
		{Label: "dataflow", D: flow.Directives{Dataflow: true}},
		{Label: "dataflow+pipeII1", D: flow.Directives{Dataflow: true, Pipeline: true, II: 1}},
		{Label: "pipeII1+complete", D: flow.Directives{Pipeline: true, II: 1,
			Partition: &passes.PartitionSpec{Kind: "complete"}}},
	}
}

func reportDigest(rep *hls.Report, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	js, jerr := json.Marshal(rep)
	if jerr != nil {
		return "error " + jerr.Error()
	}
	sum := sha256.Sum256(append(js, rep.String()...))
	return fmt.Sprintf("%x", sum[:12])
}

// synthGoldenReport digests the synthesis report (JSON plus String()) of
// both flows' final modules for every polybench kernel × dse.Space() at MINI
// and SMALL and every kgen corpus kernel × (dse.Space() + its sampled
// directives) under the default target; the MINI and kgen grid again under
// goldenTargets(); the inferred cost model on inferredLabels at MINI; and,
// at MINI, extraConfigs() plus the C++ flow's unroll2 source with its
// unroll pragma made a full unroll.
func synthGoldenReport(t *testing.T) string {
	t.Helper()
	type kernel struct {
		group, top string
		build      func() *mlir.Module
		configs    []dse.Config
	}
	var kernels []kernel
	for _, size := range []string{"MINI", "SMALL"} {
		for _, k := range polybench.All() {
			s, err := k.SizeOf(size)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := dse.Space()
			if size == "MINI" {
				cfgs = append(cfgs, extraConfigs()...)
			}
			kernels = append(kernels, kernel{"polybench-" + size, k.Name,
				func() *mlir.Module { return k.Build(s) }, cfgs})
		}
	}
	for _, k := range kgen.CorpusKernels() {
		cfgs := append(dse.Space(), dse.Config{Label: "sampled:" + k.DirectiveLabel, D: k.Directives})
		kernels = append(kernels, kernel{"kgen", k.Name, k.Build, cfgs})
	}
	inferred := hls.DefaultTarget()
	inferred.CostModel = hls.CostInferred

	var sb strings.Builder
	line := func(k kernel, label, fl, tname string, m *llvm.Module, tgt hls.Target) {
		rep, err := hls.Synthesize(m, k.top, tgt)
		fmt.Fprintf(&sb, "%s %s %s %s %s %s\n", k.group, k.top, label, fl, tname, reportDigest(rep, err))
	}
	for _, k := range kernels {
		mini := k.group != "polybench-SMALL"
		for _, c := range k.configs {
			ad, err := flow.AdaptorFlow(k.build(), k.top, c.D, hls.DefaultTarget())
			if err != nil {
				t.Fatalf("%s %s %s adaptor: %v", k.group, k.top, c.Label, err)
			}
			cx, err := flow.CxxFlow(k.build(), k.top, c.D, hls.DefaultTarget())
			if err != nil {
				t.Fatalf("%s %s %s cxx: %v", k.group, k.top, c.Label, err)
			}
			for _, r := range []struct {
				fl string
				m  *llvm.Module
			}{{"adaptor", ad.LLVM}, {"cxx", cx.LLVM}} {
				line(k, c.Label, r.fl, "default", r.m, hls.DefaultTarget())
				if !mini {
					continue
				}
				for _, gt := range goldenTargets() {
					line(k, c.Label, r.fl, gt.name, r.m, gt.tgt)
				}
				if k.group == "polybench-MINI" && inferredLabels[c.Label] {
					line(k, c.Label, r.fl, "inferred", r.m, inferred)
				}
			}
			if k.group == "polybench-MINI" && c.Label == "unroll2" {
				src := strings.ReplaceAll(cx.CSource, "#pragma HLS unroll factor=2", "#pragma HLS unroll")
				if src == cx.CSource {
					t.Fatalf("%s %s: no unroll pragma in the C++ source", k.group, k.top)
				}
				m, err := cfront.Compile(src, cfront.Options{Top: k.top})
				if err != nil {
					t.Fatalf("%s %s full unroll: %v", k.group, k.top, err)
				}
				line(k, "unroll-full", "cxx", "default", m, hls.DefaultTarget())
			}
		}
	}
	return sb.String()
}

// TestSynthGolden pins the synthesis report of every module above to
// digests recorded with the map-based estimator the table-driven one
// replaced. Reports must stay byte-identical to the ones it produced, so
// the golden is a fixed record with no regenerate switch.
func TestSynthGolden(t *testing.T) {
	got := synthGoldenReport(t)
	path := filepath.Join("testdata", "synth_golden.txt")
	want, err := os.ReadFile(path)
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
			t.Fatalf("synthesis golden drift at line %d:\n got  %s\n want %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("synthesis golden has %d lines, report %d", len(wl), len(gl))
}
