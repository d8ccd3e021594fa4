package reduce_test

import (
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/kgen"
	"repro/internal/reduce"
	"repro/internal/resilience"
)

// injectedOracle is the canonical test fixture: a kgen kernel run under a
// deterministic miscompile injection, so "interesting" is reproducible.
func injectedOracle(k kgen.Kernel) reduce.FlowOracle {
	return reduce.FlowOracle{
		Flow:       "adaptor",
		Top:        k.Name,
		Directives: k.Directives,
		Opts: flow.Options{
			InjectMiscompile: "mlir-opt/canonicalize",
			VerifySemantics:  true,
		},
	}
}

// The core tentpole property: an injected miscompile on a generated
// kernel reduces to a strictly smaller kernel that still miscompiles
// with the same failure kind.
func TestMLIRReducesInjectedMiscompile(t *testing.T) {
	k := kgen.Generate(3)
	oracle := injectedOracle(k)
	match := reduce.Match{Kind: resilience.KindMiscompile}
	keep := oracle.Keep(match)
	if !keep(k.MLIR) {
		t.Fatal("fixture kernel is not interesting under injection (corruption site missing?)")
	}
	res, err := reduce.MLIR(k.MLIR, keep, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("reduction made no progress on a generated kernel")
	}
	if res.Final.Ops >= res.Orig.Ops {
		t.Fatalf("ops did not shrink: %d -> %d", res.Orig.Ops, res.Final.Ops)
	}
	if !keep(res.MLIR) {
		t.Fatal("reduced kernel is no longer interesting — the invariant every step re-verifies")
	}
	t.Logf("reduced ops %d->%d loops %d->%d stores %d->%d in %d steps (%d tried)",
		res.Orig.Ops, res.Final.Ops, res.Orig.Loops, res.Final.Loops,
		res.Orig.Stores, res.Final.Stores, res.Steps, res.Tried)
}

// A predicate nothing satisfies must be rejected up front, not reduced
// toward: reducing a non-reproducing input would fabricate a repro.
func TestMLIRRejectsUninterestingInput(t *testing.T) {
	k := kgen.Generate(4)
	_, err := reduce.MLIR(k.MLIR, func(string) bool { return false }, reduce.Options{})
	if err != reduce.ErrNotInteresting {
		t.Fatalf("want ErrNotInteresting, got %v", err)
	}
}

// Directive reduction drops every axis the predicate does not need and
// keeps the one it does.
func TestReduceDirectives(t *testing.T) {
	d := flow.Directives{Pipeline: true, II: 2, Unroll: 4, Flatten: true}
	got, steps := reduce.ReduceDirectives(d, func(nd flow.Directives) bool {
		return nd.Pipeline // the failure "needs" pipelining
	})
	if !got.Pipeline {
		t.Fatal("required directive dropped")
	}
	if got.Unroll != 0 || got.Flatten {
		t.Fatalf("removable directives kept: %+v", got)
	}
	if steps == 0 {
		t.Fatal("no reduction steps recorded")
	}
}

// Bundle reduction end-to-end: bisect an injected failure into a bundle,
// reduce it, and check provenance, shrinkage, and that the reduced
// bundle reproduces the same failure kind.
func TestBundleReduction(t *testing.T) {
	k := kgen.Generate(3)
	oracle := injectedOracle(k)
	out := oracle.Run(k.MLIR)
	if out.Failure == nil || out.Failure.Kind != resilience.KindMiscompile {
		t.Fatalf("fixture did not miscompile: %+v", out)
	}
	orig := flow.Bisect(k.Build, "adaptor", k.Name+" fuzz", k.Name, k.Directives,
		oracle.Target, oracle.Opts, out.Err)
	if !orig.Reproduced {
		t.Fatalf("bisect did not reproduce: %s", orig.Note)
	}

	nb, res, err := reduce.Bundle(orig, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Reduced == nil || nb.Reduced.FromID != orig.ID() {
		t.Fatalf("missing or wrong provenance: %+v", nb.Reduced)
	}
	if res.Final.Ops >= res.Orig.Ops {
		t.Fatalf("bundle did not shrink: ops %d -> %d", res.Orig.Ops, res.Final.Ops)
	}
	if !nb.Reproduced {
		t.Fatalf("reduced bundle does not reproduce: %s", nb.Note)
	}
	if nb.Failure.Kind != resilience.KindMiscompile {
		t.Fatalf("reduced failure kind changed: %s", nb.Failure.Kind)
	}
	if nb.Inject != orig.Inject {
		t.Fatalf("injection not carried: %q vs %q", nb.Inject, orig.Inject)
	}

	// Naming: original and reduced bundles must never collide, and both
	// names must carry the failure kind.
	if nb.Filename() == orig.Filename() {
		t.Fatalf("reduced bundle filename collides with original: %s", nb.Filename())
	}
	for _, b := range []*resilience.Bundle{orig, nb} {
		if !strings.Contains(b.Filename(), string(resilience.KindMiscompile)) {
			t.Fatalf("filename lacks failure kind: %s", b.Filename())
		}
	}
	if !strings.HasSuffix(nb.Filename(), "-reduced.json") {
		t.Fatalf("reduced bundle not marked: %s", nb.Filename())
	}
}

// Measure counts the sizes reduction is judged by.
func TestMeasure(t *testing.T) {
	k := kgen.Generate(7)
	s, err := reduce.Measure(k.MLIR)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops == 0 || s.Loops == 0 || s.Stores == 0 {
		t.Fatalf("implausible stats for a generated kernel: %+v", s)
	}
}
