package resilience

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGuardRecoversPanic(t *testing.T) {
	err := Guard("mlir-opt", "canonicalize", func() error {
		panic("index out of range [3] with length 2")
	})
	f, ok := AsPassFailure(err)
	if !ok {
		t.Fatalf("want *PassFailure, got %T: %v", err, err)
	}
	if f.Kind != KindPanic || f.Stage != "mlir-opt" || f.Pass != "canonicalize" {
		t.Errorf("wrong attribution: %+v", f)
	}
	if !strings.Contains(f.Msg, "index out of range") {
		t.Errorf("panic value lost: %q", f.Msg)
	}
	if !strings.Contains(f.Stack, "resilience") {
		t.Errorf("stack not captured: %q", f.Stack)
	}
}

func TestGuardWrapsPlainError(t *testing.T) {
	sentinel := errors.New("bad IR")
	err := Guard("llvm-opt", "dce", func() error { return sentinel })
	f, ok := AsPassFailure(err)
	if !ok || f.Kind != KindError || f.Pass != "dce" {
		t.Fatalf("want typed error failure, got %v", err)
	}
	if !errors.Is(err, sentinel) {
		t.Error("cause chain broken")
	}
}

func TestGuardKeepsInnerAttribution(t *testing.T) {
	inner := NewFailure("mlir-opt", "cse", KindVerify, errors.New("dominance broken"))
	err := Guard("adaptor-flow", "mlir-opt", func() error { return inner })
	f, _ := AsPassFailure(err)
	if f.Pass != "cse" || f.Stage != "mlir-opt" {
		t.Errorf("outer guard must not re-attribute an inner failure: %+v", f)
	}
}

func TestGuardNilOnSuccess(t *testing.T) {
	if err := Guard("s", "p", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptedAndTransient(t *testing.T) {
	if err := Interrupted(context.Background(), "s", "p"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := Interrupted(ctx, "mlir-opt", "cse")
	f, ok := AsPassFailure(err)
	if !ok || f.Kind != KindTimeout {
		t.Fatalf("want timeout failure, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("timeout cause not visible to errors.Is")
	}
	if !Transient(err) {
		t.Error("timeouts are transient")
	}
	if Transient(NewFailure("s", "p", KindPanic, errors.New("boom"))) {
		t.Error("panics are deterministic, not transient")
	}
	if Transient(nil) {
		t.Error("nil is not transient")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := &Bundle{
		Label: "gemm adaptor", Flow: "adaptor", Top: "gemm", Scope: "MINI",
		Directives: []byte(`{"Pipeline":true,"II":1}`),
		InputMLIR:  "module {}",
		Passes:     []string{"mlir-opt/hls-mark-top", "mlir-opt/canonicalize"},
		Failure: PassFailure{Stage: "mlir-opt", Pass: "canonicalize",
			Kind: KindPanic, Msg: "boom"},
		SnapshotIR: "module {}",
		Reproduced: true,
	}
	path, err := WriteBundle(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Failure.Pass != "canonicalize" || !got.Reproduced || got.Top != "gemm" {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// Re-writing the same failure overwrites instead of accumulating.
	path2, err := WriteBundle(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if path2 != path {
		t.Errorf("same failure produced a second bundle: %s vs %s", path, path2)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Errorf("quarantine dir has %d files, want 1", len(files))
	}
}

func TestBundleRejectsFutureVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repro-x.json")
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(path); err == nil {
		t.Fatal("future bundle versions must be rejected")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() *Backoff { return &Backoff{Seed: 42} }
	a, b := mk(), mk()
	// DefaultBase doubles past DefaultMax by attempt 9, so the later
	// attempts exercise the cap.
	for attempt := 1; attempt <= 10; attempt++ {
		da, db := a.Delay(attempt), b.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %s vs %s", attempt, da, db)
		}
		if da < DefaultBase || da > DefaultMax*3/2 {
			t.Errorf("attempt %d: delay %s outside [base, 1.5*max]", attempt, da)
		}
	}
	if mk().Delay(1) == (&Backoff{Seed: 7}).Delay(3) && mk().Delay(1) == (&Backoff{Seed: 7}).Delay(1) {
		t.Log("seeds may collide on one sample; not a failure")
	}
	var zero Backoff
	if d := zero.Delay(1); d < DefaultBase {
		t.Errorf("zero-value backoff returned %s < base", d)
	}
}

type point struct {
	Label   string `json:"label"`
	Latency int64  `json:"latency"`
}

func TestJournalResumeSkipsCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Put(fmt.Sprintf("k%d", i), point{Label: fmt.Sprintf("p%d", i), Latency: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("reopened journal has %d entries, want 3", j2.Len())
	}
	var p point
	ok, err := j2.Get("k1", &p)
	if err != nil || !ok || p.Label != "p1" {
		t.Fatalf("Get k1 = %v %v %+v", ok, err, p)
	}
	if j2.Has("k9") {
		t.Error("phantom key")
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, _ := OpenJournal(path)
	j.Put("k0", point{Label: "p0"})
	j.Put("k1", point{Label: "p1"})
	j.Close()
	// Simulate a crash mid-append: chop the file inside the last line.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Has("k0") || j2.Has("k1") {
		t.Errorf("torn tail handling wrong: has k0=%v k1=%v", j2.Has("k0"), j2.Has("k1"))
	}
	// The journal stays appendable after recovery, and the re-run entry
	// lands intact.
	if err := j2.Put("k1", point{Label: "p1"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if !j3.Has("k1") {
		t.Error("re-journaled entry lost")
	}
}
