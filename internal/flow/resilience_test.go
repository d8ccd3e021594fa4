package flow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// richDirectives exercises every optional MLIR directive pass except
// dataflow (which gemm's dependence structure refuses).
func richDirectives() Directives {
	return Directives{
		Pipeline: true, II: 1, Unroll: 2, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0},
	}
}

func gemmBuilder(t *testing.T) func() *mlir.Module {
	t.Helper()
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	return func() *mlir.Module { return k.Build(s) }
}

// TestPipelineUnitsMatchObserver pins the registry to the runner: the
// units the Observer sees during a real run are exactly PipelineUnits, in
// order, for every flow kind.
func TestPipelineUnitsMatchObserver(t *testing.T) {
	build := gemmBuilder(t)
	d := richDirectives()
	tgt := hls.DefaultTarget()
	for _, kind := range []string{"adaptor", "cxx", "raw"} {
		var seen []string
		opts := Options{Observer: func(stage, pass, ir string) {
			seen = append(seen, stage+"/"+pass)
			if ir == "" {
				t.Errorf("%s: empty snapshot entering %s/%s", kind, stage, pass)
			}
		}}
		var err error
		switch kind {
		case "adaptor":
			_, err = AdaptorFlowWith(build(), "gemm", d, tgt, opts)
		case "cxx":
			_, err = CxxFlowWith(build(), "gemm", d, tgt, opts)
		case "raw":
			_, _, err = RawFlowWith(build(), "gemm", d, opts)
		}
		if err != nil {
			t.Fatalf("%s flow: %v", kind, err)
		}
		want := PipelineUnits(kind, d)
		if len(seen) != len(want) {
			t.Fatalf("%s: observer saw %d units, registry lists %d:\nseen: %v\nwant: %v",
				kind, len(seen), len(want), seen, want)
		}
		for i := range want {
			if seen[i] != want[i].String() {
				t.Errorf("%s unit %d: observer %q vs registry %q", kind, i, seen[i], want[i])
			}
		}
	}
}

// TestIsolateConvertsPanic: an injected panic in any unit surfaces as a
// typed failure naming that unit.
func TestIsolateConvertsPanic(t *testing.T) {
	build := gemmBuilder(t)
	opts := Options{
		FaultHook: func(flow, stage, pass string) error {
			if flow == "adaptor" && pass == "strength-reduce" {
				panic("injected: slice bounds out of range")
			}
			return nil
		},
	}
	_, err := AdaptorFlowWith(build(), "gemm", Directives{}, hls.DefaultTarget(), opts)
	f, ok := resilience.AsPassFailure(err)
	if !ok {
		t.Fatalf("want typed failure, got %v", err)
	}
	if f.Stage != "llvm-opt" || f.Pass != "strength-reduce" || f.Kind != resilience.KindPanic {
		t.Errorf("wrong attribution: %+v", f)
	}
}

// TestFaultHookFailuresAreTyped: every flow entry point runs its units
// isolated, with no option to ask for it. A FaultHook that panics, returns
// a wrapped deadline or returns a plain error at a unit fails exactly that
// unit with a typed panic, transient timeout or deterministic error, and
// no later unit runs.
func TestFaultHookFailuresAreTyped(t *testing.T) {
	build := gemmBuilder(t)
	boom := errors.New("injected hook error")
	for _, c := range []struct {
		name      string
		fault     func() error
		kind      resilience.FailureKind
		transient bool
	}{
		{"panic", func() error { panic("injected hook panic") }, resilience.KindPanic, false},
		{"deadline", func() error { return fmt.Errorf("injected: %w", context.DeadlineExceeded) }, resilience.KindTimeout, true},
		{"error", func() error { return boom }, resilience.KindError, false},
	} {
		for _, kind := range []string{"adaptor", "cxx", "raw"} {
			var fired bool
			var after []string
			opts := Options{FaultHook: func(flow, stage, pass string) error {
				switch {
				case fired:
					after = append(after, stage+"/"+pass)
				case stage == "mlir-opt" && pass == "canonicalize":
					fired = true
					return c.fault()
				}
				return nil
			}}
			var err error
			switch kind {
			case "adaptor":
				_, err = AdaptorFlowWith(build(), "gemm", Directives{}, hls.DefaultTarget(), opts)
			case "cxx":
				_, err = CxxFlowWith(build(), "gemm", Directives{}, hls.DefaultTarget(), opts)
			default:
				_, _, err = RawFlowWith(build(), "gemm", Directives{}, opts)
			}
			label := kind + " " + c.name
			wantFailure(t, label, err, c.kind, "mlir-opt", "canonicalize")
			if resilience.Transient(err) != c.transient {
				t.Errorf("%s: transient = %t, want %t", label, !c.transient, c.transient)
			}
			if c.name == "error" && !errors.Is(err, boom) {
				t.Errorf("%s: cause chain lost the hook's error: %v", label, err)
			}
			if len(after) > 0 {
				t.Errorf("%s: units after the failed one ran: %v", label, after)
			}
		}
	}
}

// TestFallbackDegradesToCxx: a deterministic direct-path failure degrades
// to the C++ flow; the degraded report is identical to a plain C++ run and
// the direct-path failure rides along.
func TestFallbackDegradesToCxx(t *testing.T) {
	build := gemmBuilder(t)
	d := Directives{Pipeline: true, II: 1}
	tgt := hls.DefaultTarget()
	opts := Options{
		Fallback: build,
		FaultHook: func(flow, stage, pass string) error {
			if flow == "adaptor" && pass == "adaptor" {
				panic("injected adaptor crash")
			}
			return nil
		},
	}
	res, err := AdaptorFlowWith(build(), "gemm", d, tgt, opts)
	if err != nil {
		t.Fatalf("fallback should absorb the failure, got %v", err)
	}
	if !res.Degraded || res.Flow != "cxx-fallback" {
		t.Fatalf("want degraded cxx-fallback result, got %+v", res)
	}
	if res.Failure == nil || res.Failure.Pass != "adaptor" || res.Failure.Kind != resilience.KindPanic {
		t.Errorf("direct-path failure not attached: %+v", res.Failure)
	}
	ref, err := CxxFlow(build(), "gemm", d, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.LatencyCycles != ref.Report.LatencyCycles || res.Report.LUT != ref.Report.LUT {
		t.Errorf("degraded report differs from the C++ baseline: %+v vs %+v", res.Report, ref.Report)
	}
}

// TestNoFallbackOnTransientFailure: a dead context must not trigger
// degradation — retries own transient failures.
func TestNoFallbackOnTransientFailure(t *testing.T) {
	build := gemmBuilder(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Ctx: ctx, Fallback: build}
	res, err := AdaptorFlowWith(build(), "gemm", Directives{}, hls.DefaultTarget(), opts)
	if err == nil || res != nil {
		t.Fatalf("canceled flow must error, got res=%v err=%v", res, err)
	}
	if !resilience.Transient(err) {
		t.Errorf("cancellation should classify transient: %v", err)
	}
}

// TestBisectPinsInjectedPass: the bisection replay reproduces an injected
// panic, pins the offending unit by name, and captures the IR entering it.
func TestBisectPinsInjectedPass(t *testing.T) {
	build := gemmBuilder(t)
	d := richDirectives()
	tgt := hls.DefaultTarget()
	hook := func(flow, stage, pass string) error {
		if flow == "adaptor" && pass == "affine-loop-unroll" {
			panic("injected unroll crash")
		}
		return nil
	}
	_, orig := AdaptorFlowWith(build(), "gemm", d, tgt, Options{FaultHook: hook})
	if orig == nil {
		t.Fatal("fault did not fire")
	}
	bundle := Bisect(build, "adaptor", "gemm adaptor", "gemm", d, tgt, Options{FaultHook: hook}, orig)
	if !bundle.Reproduced {
		t.Fatalf("deterministic fault must reproduce: %+v", bundle)
	}
	if bundle.Failure.Pass != "affine-loop-unroll" || bundle.Failure.Stage != "mlir-opt" {
		t.Errorf("bisection pinned %s/%s, want mlir-opt/affine-loop-unroll",
			bundle.Failure.Stage, bundle.Failure.Pass)
	}
	if bundle.SnapshotIR == "" || !strings.Contains(bundle.SnapshotIR, "affine.for") {
		t.Errorf("missing IR snapshot entering the offending pass")
	}
	if bundle.InputMLIR == "" || len(bundle.Passes) == 0 {
		t.Errorf("bundle not self-contained: input=%d bytes, %d passes",
			len(bundle.InputMLIR), len(bundle.Passes))
	}
	// The observed prefix must match the registry up to the failing unit.
	if bundle.Passes[len(bundle.Passes)-1] != "mlir-opt/affine-loop-unroll" {
		t.Errorf("last observed unit %q is not the failing one", bundle.Passes[len(bundle.Passes)-1])
	}
}

// TestBisectKeepsOriginalFailureWhenNotReproduced: without the fault hook
// the replay succeeds, and the bundle keeps the original failure with a
// note instead of claiming reproduction.
func TestBisectKeepsOriginalFailureWhenNotReproduced(t *testing.T) {
	build := gemmBuilder(t)
	orig := resilience.NewFailure("llvm-opt", "cse", resilience.KindTimeout,
		context.DeadlineExceeded)
	bundle := Bisect(build, "adaptor", "gemm adaptor", "gemm", Directives{},
		hls.DefaultTarget(), Options{}, orig)
	if bundle.Reproduced {
		t.Fatal("clean replay must not claim reproduction")
	}
	if bundle.Failure.Pass != "cse" || bundle.Failure.Kind != resilience.KindTimeout {
		t.Errorf("original failure lost: %+v", bundle.Failure)
	}
	if bundle.Note == "" {
		t.Error("non-reproduction should be explained in Note")
	}
}
