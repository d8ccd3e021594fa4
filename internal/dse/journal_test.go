package dse

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

func gemmBuilder(t *testing.T) func() *mlir.Module {
	t.Helper()
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	return func() *mlir.Module { return k.Build(s) }
}

// TestJournalResumeByteIdenticalFrontier is the crash-resume acceptance
// check: a sweep that dies partway (here: an injected fault fails half the
// space, then the process "restarts" with a fresh engine) resumes from its
// write-ahead journal, evaluates only the remainder, and renders a Pareto
// frontier byte-identical to an uninterrupted run's.
func TestJournalResumeByteIdenticalFrontier(t *testing.T) {
	build := gemmBuilder(t)
	tgt := hls.DefaultTarget()

	// Reference: one uninterrupted sweep, no journal.
	ref, err := ExploreWith(engine.Input{Build: build, Top: "gemm"}, tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refTable := ref.String()

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j1, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// First run: every odd-indexed configuration dies at its first unit —
	// the journal captures only the survivors, write-ahead. Engine workers
	// call the hook concurrently, so the counters are atomic.
	var n, killed atomic.Int64
	eng := engine.New(engine.Options{
		ContinueOnError: true,
		FlowFaultHook: func(job engine.Job, flowName, stage, pass string) error {
			if stage != "mlir-opt" || pass != "hls-mark-top" {
				return nil
			}
			if n.Add(1)%2 == 0 {
				killed.Add(1)
				return errors.New("injected crash")
			}
			return nil
		},
	})
	r1, err := ExploreWith(engine.Input{Build: build, Top: "gemm"}, tgt, Options{Engine: eng, Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	if k := int(killed.Load()); len(r1.Errors) != k || k == 0 {
		t.Fatalf("first run: %d errors, injected %d", len(r1.Errors), k)
	}
	if j1.Len() != len(r1.Points) {
		t.Fatalf("journal holds %d entries, run produced %d points", j1.Len(), len(r1.Points))
	}
	j1.Close()

	// Simulate the crash aftermath: a torn half-written line at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn-mid-app`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second run: fresh process, same journal file. Only the previously
	// failed configurations evaluate.
	j2, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(r1.Points) {
		t.Fatalf("reopened journal lost entries: %d vs %d", j2.Len(), len(r1.Points))
	}
	r2, err := ExploreWith(engine.Input{Build: build, Top: "gemm"}, tgt, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Resumed != len(r1.Points) {
		t.Errorf("resumed %d points, journal held %d", r2.Resumed, len(r1.Points))
	}
	if len(r2.Points) != len(ref.Points) || len(r2.Errors) != 0 {
		t.Fatalf("resumed sweep incomplete: %d points %d errors, want %d/0",
			len(r2.Points), len(r2.Errors), len(ref.Points))
	}
	if got := r2.String(); got != refTable {
		t.Errorf("resumed frontier differs from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s", got, refTable)
	}
	for i := range ref.Points {
		if r2.Points[i].Label != ref.Points[i].Label {
			t.Fatalf("point order diverged at %d: %s vs %s", i, r2.Points[i].Label, ref.Points[i].Label)
		}
	}
	// Third run: everything resumes, nothing evaluates.
	r3, err := ExploreWith(engine.Input{Build: build, Top: "gemm"}, tgt, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Resumed != len(ref.Points) || r3.Stats.Jobs != 0 {
		t.Errorf("full resume still evaluated: resumed=%d jobs=%d", r3.Resumed, r3.Stats.Jobs)
	}
	if r3.String() != refTable {
		t.Error("fully-resumed frontier differs from reference")
	}
}

// TestDegradedPointsAreMarked: with the engine fallback on, a direct-path
// failure degrades only its own point, the point carries the flag, and the
// frontier table marks it.
func TestDegradedPointsAreMarked(t *testing.T) {
	build := gemmBuilder(t)
	eng := engine.New(engine.Options{
		ContinueOnError: true,
		Fallback:        true,
		FlowFaultHook: func(job engine.Job, flowName, stage, pass string) error {
			if job.Label == "base" && flowName == "adaptor" && pass == "adaptor" {
				panic("injected")
			}
			return nil
		},
	})
	res, err := ExploreWith(engine.Input{Build: build, Top: "gemm"}, hls.DefaultTarget(), Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("fallback should absorb the failure: %v", res.Errors)
	}
	var degraded []string
	for _, p := range res.Points {
		if p.Degraded {
			degraded = append(degraded, p.Label)
		}
	}
	if len(degraded) != 1 || degraded[0] != "base" {
		t.Fatalf("want exactly [base] degraded, got %v", degraded)
	}
	onFrontier := false
	for _, p := range res.Pareto {
		if p.Label == "base" {
			onFrontier = p.Degraded
		}
	}
	if onFrontier && !strings.Contains(res.String(), "degraded") {
		t.Error("frontier table does not mark the degraded point")
	}
}
