package reduce_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/reduce"
	"repro/internal/resilience"
)

// fixturePath is the committed known-bad repro bundle: kgen seed 1 with a
// deterministic miscompile injected after mlir-opt/canonicalize, bisected
// and quarantined. CI's reduce smoke runs `hls-reduce -bundle` on this
// file; this test keeps the fixture honest from inside the suite.
//
// Regenerate after intentional bundle-schema or generator changes with:
//
//	UPDATE_REDUCE_FIXTURE=1 go test ./internal/reduce/ -run TestKnownBadFixture
const fixturePath = "testdata/known-bad-bundle.json"

func regenFixture(t *testing.T) {
	t.Helper()
	k := kgen.Generate(1)
	opts := flow.Options{InjectMiscompile: "mlir-opt/canonicalize", VerifySemantics: true}
	_, ferr := flow.AdaptorFlowWith(k.Build(), k.Name, k.Directives, hls.DefaultTarget(), opts)
	if ferr == nil {
		t.Fatal("fixture kernel did not fail under injection")
	}
	b := flow.Bisect(k.Build, "adaptor", k.Name, k.Name, k.Directives, hls.DefaultTarget(), opts, ferr)
	if !b.Reproduced {
		t.Fatalf("fixture bisect did not reproduce: %s", b.Note)
	}
	b.Version = resilience.BundleVersion
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixturePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s (id %s)", fixturePath, b.ID())
}

// TestKnownBadFixture asserts the committed fixture still reproduces and
// still reduces: the recorded injection is present, reduce.Bundle shrinks
// it while preserving the failure kind, and the provenance chains back to
// the fixture's ID. If this fails after an intentional change, regenerate
// (see fixturePath) and commit the new file.
func TestKnownBadFixture(t *testing.T) {
	if os.Getenv("UPDATE_REDUCE_FIXTURE") != "" {
		regenFixture(t)
	}
	b, err := resilience.ReadBundle(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if b.Inject == "" {
		t.Fatal("fixture lost its recorded injection")
	}
	if b.Failure.Kind != resilience.KindMiscompile {
		t.Fatalf("fixture failure kind = %s, want miscompile", b.Failure.Kind)
	}
	if testing.Short() {
		t.Skip("fixture reduction in short mode")
	}
	nb, res, err := reduce.Bundle(b, reduce.Options{})
	if err != nil {
		t.Fatalf("fixture no longer reduces: %v", err)
	}
	if res.Final.Ops >= res.Orig.Ops {
		t.Fatalf("fixture reduction did not shrink: %d -> %d ops", res.Orig.Ops, res.Final.Ops)
	}
	if nb.Failure.Kind != b.Failure.Kind {
		t.Fatalf("reduction changed failure kind: %s -> %s", b.Failure.Kind, nb.Failure.Kind)
	}
	if nb.Reduced == nil || nb.Reduced.FromID != b.ID() {
		t.Fatalf("provenance broken: %+v, want FromID %s", nb.Reduced, b.ID())
	}
}
