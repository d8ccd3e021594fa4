package kgen_test

import (
	"os"
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/resilience"
)

// Determinism is the generator's hard contract: same seed, byte-identical
// kernel — module text, directives, and label.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := kgen.Generate(seed)
		b := kgen.Generate(seed)
		if a.MLIR != b.MLIR {
			t.Fatalf("seed %d: module text differs between runs", seed)
		}
		if a.Directives != b.Directives && (a.Directives.Partition == nil ||
			b.Directives.Partition == nil || *a.Directives.Partition != *b.Directives.Partition) {
			t.Fatalf("seed %d: directives differ between runs", seed)
		}
		if a.DirectiveLabel != b.DirectiveLabel {
			t.Fatalf("seed %d: label differs between runs", seed)
		}
		if a.Build() == nil {
			t.Fatalf("seed %d: generated module does not re-parse", seed)
		}
	}
}

// Every generated kernel must satisfy the engine's fresh-module contract:
// two Build calls return distinct, verifier-clean modules.
func TestBuildFreshModules(t *testing.T) {
	k := kgen.Generate(42)
	m1, m2 := k.Build(), k.Build()
	if m1 == nil || m2 == nil {
		t.Fatal("Build returned nil")
	}
	if m1 == m2 {
		t.Fatal("Build returned the same module twice")
	}
	if err := m1.Verify(); err != nil {
		t.Fatalf("generated module fails verification: %v", err)
	}
}

// The checked-in corpus must match the generator exactly; any drift means
// generation became nondeterministic or changed shape, and every consumer
// of the shared fuzz corpus would silently re-seed. Regenerate with
// UPDATE_KGEN_CORPUS=1 after intentional generator changes.
func TestCorpusMatchesGenerator(t *testing.T) {
	if os.Getenv("UPDATE_KGEN_CORPUS") == "1" {
		if err := kgen.WriteCorpus("corpus", kgen.DefaultCorpusSeeds); err != nil {
			t.Fatal(err)
		}
	}
	seeds := kgen.CorpusSeeds()
	if len(seeds) < 8 {
		t.Fatalf("corpus has only %d kernels; want >= 8", len(seeds))
	}
	for _, s := range seeds {
		want, ok := kgen.CorpusText(s)
		if !ok {
			t.Fatalf("seed %d listed but unreadable", s)
		}
		got := kgen.Generate(s).MLIR
		if got != want {
			t.Errorf("seed %d: generator output drifted from checked-in corpus (regen with UPDATE_KGEN_CORPUS=1)", s)
		}
	}
}

// The 500-kernel differential smoke: every generated kernel must run
// through BOTH flows under the semantic oracle with zero divergences and
// zero conformance diagnostics (both surface as flow errors). This is the
// well-definedness guarantee the fuzz campaign rests on: a pristine
// kernel that trips the oracle would make every campaign finding suspect.
func TestCorpusSmokeBothFlows(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 40
	}
	tgt := hls.DefaultTarget()
	opts := flow.Options{VerifySemantics: true}
	for seed := 0; seed < n; seed++ {
		k := kgen.Generate(int64(seed))
		if _, err := flow.AdaptorFlowWith(k.Build(), k.Name, k.Directives, tgt, opts); err != nil {
			t.Fatalf("seed %d (%s): adaptor flow failed under %s: %v", seed, k.Name, k.DirectiveLabel, err)
		}
		if _, err := flow.CxxFlowWith(k.Build(), k.Name, k.Directives, tgt, opts); err != nil {
			t.Fatalf("seed %d (%s): cxx flow failed under %s: %v", seed, k.Name, k.DirectiveLabel, err)
		}
	}
}

// Injected miscompiles must be observable on kgen kernels — the fuzz
// campaign's findings channel. The failure must localize as KindMiscompile.
func TestInjectedMiscompileDetected(t *testing.T) {
	k := kgen.Generate(1)
	tgt := hls.DefaultTarget()
	opts := flow.Options{VerifySemantics: true, InjectMiscompile: "mlir-opt/canonicalize"}
	_, err := flow.AdaptorFlowWith(k.Build(), k.Name, k.Directives, tgt, opts)
	if err == nil {
		t.Fatal("injected miscompile went undetected")
	}
	pf, ok := resilience.AsPassFailure(err)
	if !ok {
		t.Fatalf("want PassFailure, got %T: %v", err, err)
	}
	if pf.Kind != resilience.KindMiscompile {
		t.Fatalf("want miscompile kind, got %s: %v", pf.Kind, err)
	}
}
