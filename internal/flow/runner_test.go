package flow

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/incr"
	"repro/internal/mlir"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// The runner tests drive hand-built unit lists over a MINI gemm module, so
// each concern is pinned without a real pass.

// gemmRunner returns a runner over a fresh MINI gemm module.
func gemmRunner(t *testing.T, opts Options) *runner {
	t.Helper()
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	return newRunner("adaptor", k.Build(s), k.Name, opts)
}

// llvmRunner returns a gemm runner whose module is already translated, for
// LLVM-level units.
func llvmRunner(t *testing.T, opts Options) *runner {
	t.Helper()
	r := gemmRunner(t, Options{})
	if err := r.run(append(r.lowering(nil), r.translate())); err != nil {
		t.Fatal(err)
	}
	r.opts = opts
	return r
}

// synthetic builds a unit named stage/pass over the given IR levels.
func synthetic(stage, pass string, in, out level, checks check, run func() error) unit {
	return unit{PipelineUnit: PipelineUnit{stage, pass}, in: in, out: out, checks: checks, run: run}
}

func noop() error { return nil }

// breakMLIR removes the first affine.for body's terminator, which the MLIR
// verifier rejects.
func breakMLIR(m *mlir.Module) {
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpAffineFor {
			b := o.Regions[0].Blocks[0]
			b.Remove(b.Terminator())
			return false
		}
		return true
	})
}

// wantFailure asserts err is a typed failure of the given kind at stage/pass.
func wantFailure(t *testing.T, label string, err error, kind resilience.FailureKind, stage, pass string) *resilience.PassFailure {
	t.Helper()
	f, ok := resilience.AsPassFailure(err)
	if !ok {
		t.Fatalf("%s: want a typed %s failure at %s/%s, got %T: %v", label, kind, stage, pass, err, err)
	}
	if f.Kind != kind || f.Stage != stage || f.Pass != pass {
		t.Fatalf("%s: got %s at %s/%s, want %s at %s/%s", label, f.Kind, f.Stage, f.Pass, kind, stage, pass)
	}
	return f
}

// levelRunner returns a gemm runner whose module is at the IR level the
// stage reads: mlir-opt before translation, llvm-opt after it.
func levelRunner(t *testing.T, stage string, opts Options) (*runner, level) {
	t.Helper()
	if stage == "llvm-opt" {
		return llvmRunner(t, opts), llvmIR
	}
	return gemmRunner(t, opts), mlirIR
}

// passStages are the two pass-manager stages, one per IR level.
var passStages = []string{"mlir-opt", "llvm-opt"}

// TestRunnerStopsAtBoundaryWhenCanceled: a context cancelled while unit k
// runs stops the list before unit k+1, with a canceled failure naming k+1,
// at either IR level.
func TestRunnerStopsAtBoundaryWhenCanceled(t *testing.T) {
	for _, stage := range passStages {
		t.Run(stage, func(t *testing.T) {
			var ran []string
			ctx, cancel := context.WithCancel(context.Background())
			r, at := levelRunner(t, stage, Options{Ctx: ctx})
			mark := func(name string, then func()) unit {
				return synthetic(stage, name, at, at, 0, func() error {
					ran = append(ran, name)
					if then != nil {
						then()
					}
					return nil
				})
			}
			err := r.run([]unit{mark("first", nil), mark("canceler", cancel), mark("after", nil)})
			wantFailure(t, stage, err, resilience.KindCanceled, stage, "after")
			if !errors.Is(err, context.Canceled) {
				t.Error("cause chain must expose context.Canceled")
			}
			if len(ran) != 2 || ran[1] != "canceler" {
				t.Errorf("units past the cancellation boundary ran: %v", ran)
			}
		})
	}
}

// TestRunnerIsolatesPanickingBody: a panicking body comes back as a panic
// failure for its unit, with the stack, at either IR level.
func TestRunnerIsolatesPanickingBody(t *testing.T) {
	bomb := func() error {
		var s []int
		_ = s[3] // index out of range
		return nil
	}
	for _, stage := range passStages {
		t.Run(stage, func(t *testing.T) {
			r, at := levelRunner(t, stage, Options{})
			err := r.run([]unit{synthetic(stage, "ok", at, at, 0, noop), synthetic(stage, "bomb", at, at, 0, bomb)})
			if f := wantFailure(t, stage, err, resilience.KindPanic, stage, "bomb"); f.Stack == "" {
				t.Error("panic stack not captured")
			}
		})
	}
}

// TestRunnerIsolatesPanickingCheck: a check that panics on the IR its unit
// left comes back as a panic failure for that unit instead of escaping the
// recovery boundary — for the verifier, verify-each and the oracle at
// either IR level, and for the reference capture.
func TestRunnerIsolatesPanickingCheck(t *testing.T) {
	opts := Options{VerifyEach: true, VerifySemantics: true}
	dropMLIR := func(r *runner) func() error { return func() error { r.m.Op = nil; return nil } }
	dropLLVM := func(r *runner) func() error { return func() error { r.lm = nil; return nil } }
	for _, c := range []struct {
		name   string
		r      *runner
		u      func(r *runner) unit
		oracle bool
	}{
		{"mlir verify", gemmRunner(t, opts), func(r *runner) unit {
			return synthetic("mlir-opt", "drop", mlirIR, mlirIR, checkVerify, dropMLIR(r))
		}, false},
		{"mlir oracle", gemmRunner(t, opts), func(r *runner) unit {
			return synthetic("lowering", "drop", mlirIR, mlirIR, checkOracle, dropMLIR(r))
		}, true},
		{"llvm verify-each", llvmRunner(t, opts), func(r *runner) unit {
			return synthetic("llvm-opt", "drop", llvmIR, llvmIR, checkEach, dropLLVM(r))
		}, false},
		{"llvm oracle", llvmRunner(t, opts), func(r *runner) unit {
			return synthetic("synthesis", "drop", llvmIR, noIR, checkOracle, dropLLVM(r))
		}, true},
	} {
		if c.oracle {
			sem := &semOracle{ctx: context.TODO()}
			if err := sem.capture(gemmRunner(t, Options{}).m, "gemm"); err != nil {
				t.Fatal(err)
			}
			c.r.opts.sem = sem
		}
		u := c.u(c.r)
		err := c.r.run([]unit{u})
		wantFailure(t, c.name, err, resilience.KindPanic, u.Stage, u.Pass)
	}

	// The reference capture before the first live unit runs inside its own
	// boundary. A capture that panicked is kept, so the next unit on the
	// same oracle (the C++ fallback shares it) fails at oracle/reference
	// too instead of checking against a nil harness.
	r := gemmRunner(t, opts)
	r.arm()
	sem := r.opts.sem
	r.m.Op = nil
	u := synthetic("mlir-opt", "noop", mlirIR, mlirIR, checkOracle, noop)
	wantFailure(t, "reference", r.run([]unit{u}), resilience.KindPanic, "oracle", "reference")
	r = gemmRunner(t, opts)
	r.opts.sem = sem
	wantFailure(t, "shared reference", r.run([]unit{u}), resilience.KindError, "oracle", "reference")
}

// TestRunnerTypesVerifyFailures: a verifier or lint-invariant violation is
// a verify failure naming the unit that left it.
func TestRunnerTypesVerifyFailures(t *testing.T) {
	opts := Options{VerifyEach: true}
	r := gemmRunner(t, opts)
	dropTerminator := synthetic("mlir-opt", "breaker", mlirIR, mlirIR, checkVerify, func() error {
		breakMLIR(r.m)
		return nil
	})
	wantFailure(t, "mlir", r.run([]unit{dropTerminator}), resilience.KindVerify, "mlir-opt", "breaker")

	// Swapping an instruction above the definition it uses breaks
	// dominance, which the verifier misses and the lint invariants catch.
	r = llvmRunner(t, opts)
	breakSSA := synthetic("llvm-opt", "break-ssa", llvmIR, llvmIR, checkEach, func() error {
		for _, b := range r.lm.FindFunc("gemm").Blocks {
			for i := 1; i < len(b.Instrs); i++ {
				for _, a := range b.Instrs[i].Args {
					if a == b.Instrs[i-1] {
						b.Instrs[i-1], b.Instrs[i] = b.Instrs[i], b.Instrs[i-1]
						return nil
					}
				}
			}
		}
		return errors.New("no adjacent def-use pair to swap")
	})
	wantFailure(t, "llvm", r.run([]unit{breakSSA}), resilience.KindVerify, "llvm-opt", "break-ssa")
}

// TestRunnerPassesTypedOracleFailureThrough: a miscompile the oracle
// reports is already typed, and keeps its kind and attribution through the
// recovery boundary.
func TestRunnerPassesTypedOracleFailureThrough(t *testing.T) {
	r := gemmRunner(t, Options{VerifySemantics: true, InjectMiscompile: "mlir-opt/noop"})
	r.arm()
	err := r.run([]unit{synthetic("mlir-opt", "noop", mlirIR, mlirIR, checkOracle, noop)})
	wantFailure(t, "oracle", err, resilience.KindMiscompile, "mlir-opt", "noop")
	if _, direct := err.(*resilience.PassFailure); !direct {
		t.Errorf("oracle failure was wrapped: %v", err)
	}
}

// TestRunnerHooksRunInsideGuard: the Observer sees each unit before the
// FaultHook does, both before the body, and a panic in either hook is a
// panic failure of the unit it targeted, at either IR level.
func TestRunnerHooksRunInsideGuard(t *testing.T) {
	for _, stage := range passStages {
		t.Run(stage, func(t *testing.T) {
			var events []string
			opts := Options{
				Observer: func(stage, pass, ir string) {
					events = append(events, "observe "+pass)
					if pass == "observer-bomb" {
						panic("injected observer fault")
					}
				},
				FaultHook: func(flow, stage, pass string) error {
					events = append(events, "fault "+pass)
					if pass == "hook-bomb" {
						panic("injected fault")
					}
					return nil
				},
			}
			body := func(name string) func() error {
				return func() error { events = append(events, "run "+name); return nil }
			}
			r, at := levelRunner(t, stage, opts)
			err := r.run([]unit{synthetic(stage, "a", at, at, 0, body("a")),
				synthetic(stage, "hook-bomb", at, at, 0, body("hook-bomb"))})
			wantFailure(t, "fault hook", err, resilience.KindPanic, stage, "hook-bomb")
			want := []string{"observe a", "fault a", "run a", "observe hook-bomb", "fault hook-bomb"}
			if fmt.Sprint(events) != fmt.Sprint(want) {
				t.Errorf("hook order %v, want %v", events, want)
			}

			r, at = levelRunner(t, stage, opts)
			err = r.run([]unit{synthetic(stage, "observer-bomb", at, at, 0, noop)})
			wantFailure(t, "observer", err, resilience.KindPanic, stage, "observer-bomb")
		})
	}
}

// memoRunner returns a gemm runner memoizing into store under a fixed seed,
// so the cursor's first key does not depend on the module's bytes.
func memoRunner(t *testing.T, store incr.Store, opts Options) *runner {
	t.Helper()
	opts.IncrStore, opts.IncrSeed = store, "gemm|MINI"
	r := gemmRunner(t, opts)
	r.arm()
	return r
}

// TestRunnerRecordsOnlyCheckedUnits: a unit whose check fails leaves no
// record, so the next run with the same store executes it again and fails
// at the same unit instead of replaying past the failure.
func TestRunnerRecordsOnlyCheckedUnits(t *testing.T) {
	store := incr.NewMemStore()
	for run := 1; run <= 2; run++ {
		bodies := 0
		r := memoRunner(t, store, Options{})
		clean := synthetic("mlir-opt", "clean", mlirIR, mlirIR, checkVerify, noop)
		broken := synthetic("mlir-opt", "breaker", mlirIR, mlirIR, checkVerify, func() error {
			bodies++
			breakMLIR(r.m)
			return nil
		})
		err := r.run([]unit{clean, broken})
		wantFailure(t, fmt.Sprintf("run %d", run), err, resilience.KindVerify, "mlir-opt", "breaker")
		if bodies != 1 {
			t.Errorf("run %d: failing unit ran %d times, want 1", run, bodies)
		}
		if store.Len() != 1 {
			t.Errorf("run %d: store holds %d records, want only the clean unit's", run, store.Len())
		}
		if run == 2 && (r.memo.hits != 1 || r.memo.misses != 0) {
			t.Errorf("run 2: hits=%d misses=%d, want the clean unit replayed", r.memo.hits, r.memo.misses)
		}
	}
}

// TestRunnerReplaySkipsBodyAndChecks: a replayed unit runs neither its body
// nor its checks. The second run's module fails the verifier, which the
// replayed unit's check would report if it ran.
func TestRunnerReplaySkipsBodyAndChecks(t *testing.T) {
	store := incr.NewMemStore()
	bodies := 0
	u := synthetic("mlir-opt", "counted", mlirIR, mlirIR, checkVerify, func() error { bodies++; return nil })
	if err := memoRunner(t, store, Options{}).run([]unit{u}); err != nil {
		t.Fatal(err)
	}
	r := memoRunner(t, store, Options{})
	breakMLIR(r.m)
	if err := r.m.Verify(); err == nil {
		t.Fatal("fixture: the broken module passes the verifier")
	}
	if err := r.run([]unit{u}); err != nil {
		t.Fatalf("replayed unit ran its check: %v", err)
	}
	if bodies != 1 || r.memo.hits != 1 {
		t.Errorf("body ran %d times, %d hits; want 1 run and a replay", bodies, r.memo.hits)
	}
}
