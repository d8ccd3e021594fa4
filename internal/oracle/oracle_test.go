package oracle

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	lparser "repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
	"repro/internal/translate"
)

func gemmModule(t *testing.T) *mlir.Module {
	t.Helper()
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	return k.Build(s)
}

func TestHarnessSelfConsistent(t *testing.T) {
	// The pristine module must pass its own oracle at every layer the
	// harness can execute it.
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMLIR(m); err != nil {
		t.Errorf("pristine structured module diverges from itself: %v", err)
	}
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMLIR(m); err != nil {
		t.Errorf("scf form diverges: %v", err)
	}
	if err := lower.SCFToCF(m); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMLIR(m); err != nil {
		t.Errorf("cf form diverges: %v", err)
	}
	lm, err := translate.Translate(m, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckLLVM(lm); err != nil {
		t.Errorf("descriptor-ABI LLVM form diverges: %v", err)
	}
}

func TestDivergenceDetected(t *testing.T) {
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	// Flip the kernel's multiply-accumulate into a multiply-subtract.
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpAddF {
			o.Name = mlir.OpSubF
			return false
		}
		return true
	})
	err = h.CheckMLIR(m)
	if err == nil {
		t.Fatal("corrupted kernel passed the oracle")
	}
	var d *Divergence
	if !errors.As(err, &d) {
		t.Fatalf("expected a *Divergence, got %v", err)
	}
	if !IsMiscompile(err) {
		t.Error("a divergence must classify as a miscompile")
	}
}

func TestFuelClassifiesAsMiscompile(t *testing.T) {
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	h.Fuel = 10
	err = h.CheckMLIR(gemmModule(t))
	if err == nil {
		t.Fatal("fuel budget of 10 should not complete gemm")
	}
	if !IsMiscompile(err) {
		t.Errorf("fuel exhaustion must classify as miscompile, got %v", err)
	}
}

// runMLIR executes function f of an MLIR text module on zeroed buffers.
func runMLIR(t *testing.T, src string) error {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var bufs []*mlir.MemBuf
	for _, a := range mlir.FuncBody(m.FindFunc("f")).Args {
		bufs = append(bufs, mlir.NewMemBuf(a.Type()))
	}
	return m.InterpretWithFuel("f", 1000, bufs...)
}

// runLLVM executes function f of an LLVM text module with no arguments.
func runLLVM(t *testing.T, src string) error {
	t.Helper()
	m, err := lparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, _, err = interp.NewMachine(m).Run(context.Background(), "f")
	return err
}

// mlirFunc wraps an MLIR function body over one memref<4xi64> argument.
func mlirFunc(body string) string {
	return "module {\n  func.func @f(%arg0: memref<4xi64>) {\n" + body + "    func.return\n  }\n}\n"
}

// llvmFunc wraps an LLVM function body returning i64.
func llvmFunc(body string) string {
	return "; ModuleID = 't'\n; Flavor: modern\n\ndefine i64 @f() {\nentry:\n" + body + "}\n"
}

func TestOracleLimitationIsNotMiscompile(t *testing.T) {
	if IsMiscompile(errors.New("interp: unsupported op foo.bar")) {
		t.Error("an unexecutable op is an oracle limitation, not a miscompile")
	}
	if IsMiscompile(errors.New("oracle: @gemm has 4 params, matching neither the direct ABI (3) nor the descriptor ABI (21)")) {
		t.Error("an unrecognized ABI is an oracle limitation, not a miscompile")
	}
	// Runtime faults are classified by type, never by message text.
	if IsMiscompile(errors.New("interp: index 9 out of bounds [0,4) in dim 0")) {
		t.Error("an untyped error must not classify as a miscompile by its wording")
	}
	// A predicate the interpreters do not know is reported when reached,
	// never evaluated as false.
	for name, err := range map[string]error{
		"unknown cmpi predicate": runMLIR(t, mlirFunc(
			"    %0 = arith.constant 1 : index\n    %1 = arith.cmpi ult, %0, %0 : index\n")),
		"unknown cmpf predicate": runMLIR(t, mlirFunc(
			"    %0 = arith.constant 1.0 : f32\n    %1 = arith.cmpf une, %0, %0 : f32\n")),
		"unknown icmp predicate": runLLVM(t, llvmFunc(
			"  %c = icmp weird i64 1, 2\n  %r = zext i1 %c to i64\n  ret i64 %r\n")),
		"unknown fcmp predicate": runLLVM(t, llvmFunc(
			"  %c = fcmp ueq double 1e+00, 2e+00\n  %r = zext i1 %c to i64\n  ret i64 %r\n")),
	} {
		if err == nil {
			t.Errorf("%s: executed without error", name)
			continue
		}
		if IsMiscompile(err) {
			t.Errorf("%s: %v classifies as a miscompile, want an oracle limitation", name, err)
		}
	}
	// An allocation past one execution's memory budget, or of a negative
	// size, fails before it is made, as a limitation.
	malloc := func(body string) string { return llvmFunc(body) + "\ndeclare ptr @malloc(i64 %n)\n" }
	for name, err := range map[string]error{
		"memref.alloc past the budget": runMLIR(t, mlirFunc("    %0 = memref.alloc() : memref<1048576x1048576xf64>\n")),
		"overflowing memref.alloc":     runMLIR(t, mlirFunc("    %0 = memref.alloc() : memref<4294967296x4294967296xf32>\n")),
		"alloca past the budget":       runLLVM(t, llvmFunc("  %a = alloca [1099511627776 x double]\n  ret i64 0\n")),
		"malloc past the budget":       runLLVM(t, malloc("  %p = call ptr @malloc(i64 17179869184)\n  ret i64 0\n")),
		"malloc of a negative size":    runLLVM(t, malloc("  %p = call ptr @malloc(i64 -8)\n  ret i64 0\n")),
		"mallocs past the budget together": runLLVM(t, malloc(
			"  %p = call ptr @malloc(i64 10000000)\n  %q = call ptr @malloc(i64 10000000)\n  ret i64 0\n")),
	} {
		if !errors.Is(err, interp.ErrMemLimit) || IsMiscompile(err) {
			t.Errorf("%s: %v, want a memory-budget error that is not a miscompile", name, err)
		}
	}
}

func TestTrapClassifiesAsMiscompile(t *testing.T) {
	var trapErr error = &interp.Trap{Kind: interp.TrapOOB, Detail: "load past the end"}
	if !IsMiscompile(trapErr) {
		t.Error("an interpreter trap must classify as a miscompile")
	}
	if !IsMiscompile(interp.ErrFuel) {
		t.Error("LLVM-side fuel exhaustion must classify as a miscompile")
	}
	// Every runtime fault of the MLIR program is a typed trap.
	for name, c := range map[string]struct {
		body string
		kind interp.TrapKind
	}{
		"out of bounds":     {"    %0 = arith.constant 9 : index\n    %1 = memref.load %arg0[%0] : memref<4xi64>\n", interp.TrapOOB},
		"division by zero":  {"    %0 = arith.constant 0 : index\n    %1 = arith.divsi %0, %0 : index\n", interp.TrapDivZero},
		"remainder by zero": {"    %0 = arith.constant 0 : index\n    %1 = arith.remsi %0, %0 : index\n", interp.TrapDivZero},
		"non-positive scf.for step": {"    %0 = arith.constant 0 : index\n    %1 = arith.constant 4 : index\n" +
			"    scf.for %2 = %0 to %1 step %0 {\n    }\n", interp.TrapLoopStep},
	} {
		err := runMLIR(t, mlirFunc(c.body))
		if tr, ok := interp.AsTrap(err); !ok || tr.Kind != c.kind {
			t.Errorf("%s: %v, want a %s trap", name, err, c.kind)
		}
		if !IsMiscompile(err) {
			t.Errorf("%s: %v must classify as a miscompile", name, err)
		}
	}
	err := runMLIR(t, mlirFunc("    affine.for %0 = 0 to 100000 step 1 {\n    }\n"))
	if !errors.Is(err, mlir.ErrFuel) || !IsMiscompile(err) {
		t.Errorf("MLIR fuel exhaustion = %v, must be ErrFuel and a miscompile", err)
	}
}

// nudgeFirstFloatConstant moves the first non-zero float constant of m up by
// one unit in the last place at f32 — a change that survives the oracle's
// default tolerance but not a zero one.
func nudgeFirstFloatConstant(t *testing.T, m *mlir.Module) {
	t.Helper()
	done := false
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if a, ok := o.Attr(mlir.AttrValue).(mlir.FloatAttr); ok && !done && a.Value != 0 {
			a.Value = float64(math.Nextafter32(float32(a.Value), float32(math.Inf(1))))
			o.SetAttr(mlir.AttrValue, a)
			done = true
		}
		return true
	})
	if !done {
		t.Fatal("no float constant to nudge")
	}
}

// TestPassedProgramSkipIsSound shows when a recorded verdict vouches for a
// check: equal programs under the same tolerance and fuel skip, and any
// in-place change, tolerance change or fuel change executes again.
func TestPassedProgramSkipIsSound(t *testing.T) {
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	// A module mutated in place after a passing check is re-executed.
	if err := h.CheckMLIR(m); err != nil {
		t.Fatal(err)
	}
	nudgeFirstFloatConstant(t, m)
	if err := h.CheckMLIR(m); err != nil {
		t.Fatalf("a 1-ULP constant change must pass at the default tolerance: %v", err)
	}
	// The nudged program passed under MaxULP 4; under MaxULP 0 it must run
	// again and diverge.
	h.MaxULP = 0
	var d *Divergence
	if err := h.CheckMLIR(m); !errors.As(err, &d) {
		t.Fatalf("after tightening the tolerance the check must execute and diverge, got %v", err)
	}
	// The pristine program passed as the reference under the default fuel;
	// with a budget too small to finish, it must run again and run out.
	h.MaxULP = DefaultMaxULP
	h.Fuel = 10
	if err := h.CheckMLIR(gemmModule(t)); !errors.Is(err, mlir.ErrFuel) {
		t.Fatalf("after cutting the fuel the check must execute and run out, got %v", err)
	}

	// The same at the LLVM level: a passing module corrupted in place.
	h.Fuel = mlir.DefaultFuel
	lm := translated(t, gemmModule(t))
	if err := h.CheckLLVM(lm); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckLLVM(lm); err != nil {
		t.Fatal(err)
	}
	corruptFirstFAdd(lm)
	if err := h.CheckLLVM(lm); !errors.As(err, &d) {
		t.Fatalf("a corrupted module must execute and diverge after a passing check, got %v", err)
	}
}

// translated lowers and translates m to descriptor-ABI LLVM.
func translated(t *testing.T, m *mlir.Module) *llvm.Module {
	t.Helper()
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	if err := lower.SCFToCF(m); err != nil {
		t.Fatal(err)
	}
	lm, err := translate.Translate(m, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lm
}

func corruptFirstFAdd(lm *llvm.Module) {
	for _, f := range lm.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == llvm.OpFAdd {
					in.Op = llvm.OpFSub
					return
				}
			}
		}
	}
}

// TestHarnessConcurrentChecks runs every IR level's checks on one harness
// from several goroutines; under -race it proves the verdicts and the
// spare inputs are the only shared mutable state and are guarded. The
// table starts cold and each check is made twice in a row, so skipped
// checks interleave with executed ones, every program is released after
// its check, and compiles take released storage.
func TestHarnessConcurrentChecks(t *testing.T) {
	ResetShared()
	h, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	// Half the goroutines check a 1-ULP variant: two passing programs per
	// level, each executed until some goroutine records its verdict.
	type work struct {
		structured, lowered *mlir.Module
		lm                  *llvm.Module
	}
	jobs := make([]work, 4)
	for g := range jobs {
		m, lowered := gemmModule(t), gemmModule(t)
		if g%2 == 1 {
			nudgeFirstFloatConstant(t, m)
			nudgeFirstFloatConstant(t, lowered)
		}
		jobs[g] = work{structured: m, lowered: lowered, lm: translated(t, lowered)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, w := range jobs {
		wg.Add(1)
		go func(w work) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for _, check := range []func() error{
					func() error { return h.CheckMLIR(w.structured) },
					func() error { return h.CheckMLIR(w.structured) },
					func() error { return h.CheckMLIR(w.lowered) },
					func() error { return h.CheckMLIR(w.lowered) },
					func() error { return h.CheckLLVM(w.lm) },
					func() error { return h.CheckLLVM(w.lm) },
				} {
					if err := check(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestAllKernelsHarnessable(t *testing.T) {
	// Every polybench kernel must admit a reference execution — the
	// precondition for VerifySemantics covering the whole suite.
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			m := k.Build(s)
			h, err := New(m, k.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.CheckMLIR(m); err != nil {
				t.Errorf("pristine %s diverges from itself: %v", k.Name, err)
			}
		})
	}
}

// TestNewFromLLVM covers the hls-adaptor CLI path: no MLIR in sight — the
// reference is the pre-adapt descriptor-ABI LLVM module, the shapes come
// off the adapted signature, and the adapted module must match the
// reference bit-for-bit (within ULP tolerance).
func TestNewFromLLVM(t *testing.T) {
	buildLL := func() *llvm.Module {
		m := gemmModule(t)
		if err := lower.AffineToSCF(m); err != nil {
			t.Fatal(err)
		}
		if err := lower.SCFToCF(m); err != nil {
			t.Fatal(err)
		}
		lm, err := translate.Translate(m, translate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return lm
	}
	pristine := buildLL()
	adapted := buildLL()
	if _, err := core.Adapt(adapted, core.Options{TopFunc: "gemm"}); err != nil {
		t.Fatal(err)
	}
	shapes, err := ShapesOf(adapted.FindFunc("gemm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 3 {
		t.Fatalf("gemm has %d ports, want 3", len(shapes))
	}
	h, err := NewFromLLVM(pristine, "gemm", shapes)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckLLVM(adapted); err != nil {
		t.Errorf("adapted module diverges from its own input: %v", err)
	}
	// And the harness still catches corruption of the adapted module.
	for _, f := range adapted.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == llvm.OpFAdd {
					in.Op = llvm.OpFSub
					goto corrupted
				}
			}
		}
	}
corrupted:
	err = h.CheckLLVM(adapted)
	if err == nil {
		t.Fatal("corrupted adapted module passed the oracle")
	}
	if !IsMiscompile(err) {
		t.Errorf("corruption must classify as miscompile, got %v", err)
	}
}
