package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/reduce"
	"repro/internal/resilience"
)

// TestFuzzCampaignEndToEnd is the PR's acceptance criterion as one test:
// an injected miscompile on a kgen-generated kernel is found by
// hls-fuzz, auto-reduced to a kernel with strictly fewer statements and
// loops, and the reduced bundle still reproduces the same PassFailure
// kind via `hls-adaptor -replay`.
func TestFuzzCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI campaign test in short mode")
	}
	tools := buildTools(t, "hls-fuzz", "hls-adaptor")
	qdir := t.TempDir()

	_, errOut, err := runTool(t, tools["hls-fuzz"], "",
		"-seed", "3", "-count", "1", "-flows", "adaptor",
		"-inject-miscompile", "mlir-opt/canonicalize",
		"-quarantine", qdir)
	if code := exitCode(err); code != 1 {
		t.Fatalf("hls-fuzz exit = %d, want 1 (findings)\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "FINDING") {
		t.Fatalf("no finding reported:\n%s", errOut)
	}

	reducedGlob, _ := filepath.Glob(filepath.Join(qdir, "repro-*-reduced.json"))
	if len(reducedGlob) != 1 {
		t.Fatalf("want exactly 1 reduced bundle, got %v\n%s", reducedGlob, errOut)
	}
	origGlob := []string{}
	for _, p := range mustGlob(t, qdir, "repro-*.json") {
		if !strings.HasSuffix(p, "-reduced.json") {
			origGlob = append(origGlob, p)
		}
	}
	if len(origGlob) != 1 {
		t.Fatalf("want exactly 1 original bundle, got %v", origGlob)
	}

	orig, err := resilience.ReadBundle(origGlob[0])
	if err != nil {
		t.Fatal(err)
	}
	red, err := resilience.ReadBundle(reducedGlob[0])
	if err != nil {
		t.Fatal(err)
	}

	// Same failure kind, with provenance chaining reduced -> original.
	if orig.Failure.Kind != resilience.KindMiscompile {
		t.Fatalf("original failure kind = %s, want miscompile", orig.Failure.Kind)
	}
	if red.Failure.Kind != orig.Failure.Kind {
		t.Fatalf("reduced failure kind = %s, want %s", red.Failure.Kind, orig.Failure.Kind)
	}
	if red.Reduced == nil || red.Reduced.FromID != orig.ID() {
		t.Fatalf("reduced bundle provenance = %+v, want FromID %s", red.Reduced, orig.ID())
	}
	if !strings.Contains(filepath.Base(origGlob[0]), string(orig.Failure.Kind)) {
		t.Fatalf("bundle filename lacks failure kind: %s", origGlob[0])
	}

	// Strictly smaller: fewer ops AND no more loops/stores, with at least
	// one of loops/stores strictly reduced or ops strictly reduced.
	so, err := reduce.Measure(orig.InputMLIR)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := reduce.Measure(red.InputMLIR)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Ops >= so.Ops {
		t.Fatalf("reduction did not shrink ops: %d -> %d", so.Ops, sr.Ops)
	}
	if sr.Loops > so.Loops || sr.Stores > so.Stores {
		t.Fatalf("reduction grew structure: loops %d->%d stores %d->%d",
			so.Loops, sr.Loops, so.Stores, sr.Stores)
	}

	// The reduced bundle replays: same failure reproduces, exit 0.
	_, replayErr, err := runTool(t, tools["hls-adaptor"], "", "-replay", reducedGlob[0])
	if code := exitCode(err); code != resilience.ReplayExitReproduced {
		t.Fatalf("replay exit = %d, want %d\n%s", code, resilience.ReplayExitReproduced, replayErr)
	}
	if !strings.Contains(replayErr, "reproduced") {
		t.Fatalf("replay did not report reproduction:\n%s", replayErr)
	}
}

func mustGlob(t *testing.T, dir, pat string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, pat))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayExitCodeTable pins the documented replay exit-code contract
// (resilience.ReplayExit*) against the real CLI, one row per code.
func TestReplayExitCodeTable(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI table test in short mode")
	}
	tools := buildTools(t, "hls-adaptor")
	dir := t.TempDir()
	k := kgen.Generate(3)
	tgt := hls.DefaultTarget()

	// Reproduced: a bisected injected miscompile.
	opts := flow.Options{InjectMiscompile: "mlir-opt/canonicalize", VerifySemantics: true}
	_, ferr := flow.AdaptorFlowWith(k.Build(), k.Name, k.Directives, tgt, opts)
	if ferr == nil {
		t.Fatal("fixture did not fail")
	}
	repro := flow.Bisect(k.Build, "adaptor", k.Name, k.Name, k.Directives, tgt, opts, ferr)
	if !repro.Reproduced {
		t.Fatalf("fixture bisect did not reproduce: %s", repro.Note)
	}
	reproPath, err := resilience.WriteBundle(dir, repro)
	if err != nil {
		t.Fatal(err)
	}

	// Clean: a healthy kernel with a fabricated recorded failure.
	clean := &resilience.Bundle{
		Label: "clean", Flow: "adaptor", Top: k.Name,
		InputMLIR: k.MLIR,
		Failure: resilience.PassFailure{
			Stage: "mlir-opt", Pass: "canonicalize",
			Kind: resilience.KindPanic, Msg: "fabricated",
		},
	}
	cleanPath, err := resilience.WriteBundle(dir, clean)
	if err != nil {
		t.Fatal(err)
	}

	// Unusable: a bundle with no input IR.
	empty := &resilience.Bundle{Label: "empty", Flow: "adaptor", Top: k.Name,
		Failure: resilience.PassFailure{Kind: resilience.KindError, Msg: "x"}}
	emptyPath, err := resilience.WriteBundle(dir, empty)
	if err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name string
		path string
		want int
	}{
		{"reproduced", reproPath, resilience.ReplayExitReproduced},
		{"clean", cleanPath, resilience.ReplayExitClean},
		{"unusable-no-input", emptyPath, resilience.ReplayExitUnusable},
		{"unusable-missing-file", filepath.Join(dir, "nope.json"), resilience.ReplayExitUnusable},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, errOut, err := runTool(t, tools["hls-adaptor"], "", "-replay", row.path)
			if code := exitCode(err); code != row.want {
				t.Fatalf("replay %s: exit = %d, want %d\n%s", row.path, code, row.want, errOut)
			}
		})
	}
}

// TestHLSReduceCLIMLIRModeTrailingFlags pins the documented CLI spelling
// with the input file FIRST and predicate flags after it: the flag
// package stops at the first positional argument, so without the
// re-parse in hls-reduce the trailing flags were silently dropped and
// the injection never armed.
func TestHLSReduceCLIMLIRModeTrailingFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test in short mode")
	}
	tools := buildTools(t, "hls-reduce")
	out := filepath.Join(t.TempDir(), "min.mlir")
	_, errOut, err := runTool(t, tools["hls-reduce"], "",
		"internal/kgen/corpus/k1.mlir",
		"-kind", "miscompile",
		"-inject-miscompile", "mlir-opt/canonicalize",
		"-o", out)
	if code := exitCode(err); code != 0 {
		t.Fatalf("hls-reduce exit = %d, want 0 (trailing flags dropped?)\n%s", code, errOut)
	}
	so, err := reduce.Measure(kgen.Generate(1).MLIR)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := reduce.Measure(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Ops >= so.Ops {
		t.Fatalf("reduction did not shrink ops: %d -> %d", so.Ops, sr.Ops)
	}
}

// TestHLSReduceCLIBundleMode drives the hls-reduce binary on a real
// bundle and checks the reduced artifact lands with the -reduced marker.
func TestHLSReduceCLIBundleMode(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test in short mode")
	}
	tools := buildTools(t, "hls-reduce")
	dir := t.TempDir()
	k := kgen.Generate(3)
	opts := flow.Options{InjectMiscompile: "mlir-opt/canonicalize", VerifySemantics: true}
	_, ferr := flow.AdaptorFlowWith(k.Build(), k.Name, k.Directives, hls.DefaultTarget(), opts)
	b := flow.Bisect(k.Build, "adaptor", k.Name, k.Name, k.Directives, hls.DefaultTarget(), opts, ferr)
	path, err := resilience.WriteBundle(dir, b)
	if err != nil {
		t.Fatal(err)
	}

	stdout, errOut, err := runTool(t, tools["hls-reduce"], "", "-bundle", path)
	if code := exitCode(err); code != 0 {
		t.Fatalf("hls-reduce exit = %d\n%s", code, errOut)
	}
	written := strings.TrimSpace(stdout)
	if !strings.HasSuffix(written, "-reduced.json") {
		t.Fatalf("output path lacks -reduced marker: %q", written)
	}
	nb, err := resilience.ReadBundle(written)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Reduced == nil || nb.Reduced.FromID != b.ID() {
		t.Fatalf("provenance missing: %+v", nb.Reduced)
	}
}
