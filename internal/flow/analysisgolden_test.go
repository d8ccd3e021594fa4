package flow

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/llvm"
)

// analysisDigest hashes everything the hls-lint surfaces and the II
// pre-check read from lm's analyses: every field of every lint.Module
// diagnostic under the declared and under the inferred cost model, the
// full lint.DependenceSummary (hls-lint -deps), lint.WidthSummary
// (hls-lint -widths), and hls.LoopBounds of every defined function under
// both cost models.
func analysisDigest(lm *llvm.Module) string {
	declared := hls.DefaultTarget()
	inferred := declared
	inferred.CostModel = hls.CostInferred
	h := sha256.New()
	for _, tgt := range []hls.Target{declared, inferred} {
		for _, d := range lint.Module(lm, lint.Options{Target: tgt}) {
			fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d|%d|%q|%q|%q|%s\n",
				d.Severity, d.Check, d.Func, d.Block, d.Instr, d.BlockPos, d.InstrPos,
				d.Message, d.Suggestion, d.Explanation, d.ID)
		}
		io.WriteString(h, "--\n")
	}
	for _, fd := range lint.DependenceSummary(lm) {
		fmt.Fprintf(h, "deps @%s\n", fd.Func)
		for _, n := range fd.Nests {
			fmt.Fprintf(h, " nest %s %v\n", n.Root, n.Loops)
			for _, e := range n.Edges {
				fmt.Fprintf(h, "  %s %s %s %s %s %v %v\n", e.Src, e.Dst, e.Kind, e.Base, e.Res, e.Vecs, e.Tests)
			}
		}
	}
	for _, fw := range lint.WidthSummary(lm, declared) {
		fmt.Fprintf(h, "widths @%s %+v %+v %d %d %d\n", fw.Func, fw.Declared, fw.Inferred,
			fw.SavedLUT, fw.SavedFF, fw.SavedDSP)
		for _, v := range fw.Values {
			fmt.Fprintf(h, " %+v\n", v)
		}
	}
	for _, tgt := range []hls.Target{declared, inferred} {
		for _, f := range lm.Funcs {
			for _, lb := range hls.LoopBounds(hls.Analyze(f), tgt) {
				fmt.Fprintf(h, "bound @%s %%%s %t %d %v %d\n", f.Name, lb.Header.Name,
					lb.Pipelined, lb.RecMII, lb.ParamAccesses, lb.LocalAccesses)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestAnalysisGoldenAllKernels pins what lint (every diagnostic field, under
// both cost models), the dependence and width summaries, and the loop
// bounds answer on every module the facts golden covers. It is a fixed
// record with no regenerate switch: a diff means an analysis answer
// changed.
func TestAnalysisGoldenAllKernels(t *testing.T) {
	var sb strings.Builder
	goldenModules(t, func(top, label, form string, lm *llvm.Module) {
		fmt.Fprintf(&sb, "%s %s %s %s\n", top, label, form, analysisDigest(lm))
	})
	checkGolden(t, "analysis", sb.String(), "analysis_golden.txt")
}
