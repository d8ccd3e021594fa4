package flow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/llvm/interp"
	lparser "repro/internal/llvm/parser"
	"repro/internal/mlir"
	mlirparser "repro/internal/mlir/parser"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// TestVerifySemanticsAllKernelsBothFlows is the semantic-equivalence
// property test: every polybench kernel through both full flows with the
// differential oracle on must diverge nowhere — after every pipeline unit
// the IR computes exactly what the pristine kernel computes (within the
// ULP tolerance) — and the final adaptor module must clear the HLS
// conformance gate with zero diagnostics.
func TestVerifySemanticsAllKernelsBothFlows(t *testing.T) {
	kernels := polybench.All()
	if len(kernels) < 18 {
		t.Fatalf("expected the full 18-kernel suite, got %d", len(kernels))
	}
	tgt := hls.DefaultTarget()
	d := Directives{Pipeline: true, II: 1}
	opts := Options{VerifySemantics: true}
	for _, k := range kernels {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			res, err := AdaptorFlowWith(k.Build(s), k.Name, d, tgt, opts)
			if err != nil {
				t.Fatalf("adaptor flow with VerifySemantics: %v", err)
			}
			if ds := hls.Conformance(res.LLVM); len(ds) != 0 {
				t.Errorf("adaptor output has %d conformance diagnostics; first: %s", len(ds), ds[0])
			}
			cres, err := CxxFlowWith(k.Build(s), k.Name, d, tgt, opts)
			if err != nil {
				t.Fatalf("cxx flow with VerifySemantics: %v", err)
			}
			if ds := hls.Conformance(cres.LLVM); len(ds) != 0 {
				t.Errorf("cxx output has %d conformance diagnostics; first: %s", len(ds), ds[0])
			}
		})
	}
}

// TestVerifySemanticsMatchesDefault asserts the oracle changes only
// checking, never results.
func TestVerifySemanticsMatchesDefault(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	tgt := hls.DefaultTarget()
	d := richDirectives()
	plain, err := AdaptorFlow(k.Build(s), k.Name, d, tgt)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := AdaptorFlowWith(k.Build(s), k.Name, d, tgt, Options{VerifySemantics: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.String() != checked.Report.String() {
		t.Errorf("VerifySemantics changed the synthesis report:\n--- default\n%s\n--- verified\n%s",
			plain.Report, checked.Report)
	}
}

// TestInjectedMiscompileSweep is the oracle's acceptance sweep: a
// deliberately wrong rewrite inserted after each of the 18 registered
// adaptor pipeline units must be detected by that unit's own oracle check,
// typed KindMiscompile, and localized to the unit by name.
func TestInjectedMiscompileSweep(t *testing.T) {
	build := gemmBuilder(t)
	d := richDirectives()
	tgt := hls.DefaultTarget()
	units := PipelineUnits("adaptor", d)
	if len(units) != 18 {
		t.Fatalf("adaptor pipeline has %d units under rich directives, want 18", len(units))
	}
	for _, u := range units {
		u := u
		t.Run(u.String(), func(t *testing.T) {
			opts := Options{
				VerifySemantics:  true,
				InjectMiscompile: u.String(),
			}
			_, err := AdaptorFlowWith(build(), "gemm", d, tgt, opts)
			if err == nil {
				t.Fatalf("injected miscompile after %s went undetected", u)
			}
			pf, ok := resilience.AsPassFailure(err)
			if !ok {
				t.Fatalf("miscompile surfaced untyped: %v", err)
			}
			if pf.Kind != resilience.KindMiscompile {
				t.Fatalf("failure kind = %s, want miscompile (%v)", pf.Kind, err)
			}
			if pf.Stage != u.Stage || pf.Pass != u.Pass {
				t.Fatalf("localized to %s/%s, want %s", pf.Stage, pf.Pass, u)
			}
		})
	}
}

// TestInjectedMiscompileArmsOracle: an injected miscompile arms the oracle
// by itself. Without VerifySemantics it is still caught as a miscompile at
// the unit it names, in both flows.
func TestInjectedMiscompileArmsOracle(t *testing.T) {
	build := gemmBuilder(t)
	tgt := hls.DefaultTarget()
	for _, c := range []struct{ kind, unit string }{
		{"adaptor", "llvm-opt/cse"},
		{"adaptor", "mlir-opt/canonicalize"},
		{"cxx", "c-frontend/c-frontend"},
	} {
		opts := Options{InjectMiscompile: c.unit}
		var err error
		if c.kind == "cxx" {
			_, err = CxxFlowWith(build(), "gemm", Directives{}, tgt, opts)
		} else {
			_, err = AdaptorFlowWith(build(), "gemm", Directives{}, tgt, opts)
		}
		stage, pass, _ := strings.Cut(c.unit, "/")
		wantFailure(t, c.kind+" "+c.unit, err, resilience.KindMiscompile, stage, pass)
	}
}

// TestMiscompileBisectAndReplay closes the quarantine loop: a miscompile
// bisects into a bundle that records the injection, reproduces, and
// replays to the same unit — the path hls-adaptor -replay drives.
func TestMiscompileBisectAndReplay(t *testing.T) {
	build := gemmBuilder(t)
	d := richDirectives()
	tgt := hls.DefaultTarget()
	const target = "llvm-opt/strength-reduce"
	opts := Options{VerifySemantics: true, InjectMiscompile: target}
	_, err := AdaptorFlowWith(build(), "gemm", d, tgt, opts)
	if err == nil {
		t.Fatal("injected miscompile went undetected")
	}

	b := Bisect(build, "adaptor", "gemm miscompile", "gemm", d, tgt, opts, err)
	if !b.Reproduced {
		t.Fatalf("bisection did not reproduce the miscompile: %+v", b.Failure)
	}
	if b.Failure.Kind != resilience.KindMiscompile {
		t.Errorf("bundle failure kind = %s, want miscompile", b.Failure.Kind)
	}
	if got := b.Failure.Stage + "/" + b.Failure.Pass; got != target {
		t.Errorf("bundle localized to %s, want %s", got, target)
	}
	if b.Inject != target {
		t.Errorf("bundle did not record the injection: %q", b.Inject)
	}
	if b.SnapshotIR == "" {
		t.Error("bundle carries no IR snapshot for the offending unit")
	}

	// Replay from the bundle alone, the way hls-adaptor -replay does: the
	// recorded input plus the recorded injection must reproduce the same
	// localized miscompile even from bare options.
	if _, err := mlirparser.Parse(b.InputMLIR); err != nil {
		t.Fatalf("bundle input does not parse: %v", err)
	}
	rebuild := func() *mlir.Module {
		m, err := mlirparser.Parse(b.InputMLIR)
		if err != nil {
			return nil
		}
		return m
	}
	rb := Bisect(rebuild, b.Flow, b.Label, b.Top, d, tgt,
		Options{InjectMiscompile: b.Inject}, &b.Failure)
	if !rb.Reproduced {
		t.Fatal("replay from bundle did not reproduce")
	}
	if got := rb.Failure.Stage + "/" + rb.Failure.Pass; got != target {
		t.Errorf("replay localized to %s, want %s", got, target)
	}
	if rb.Failure.Kind != resilience.KindMiscompile {
		t.Errorf("replay failure kind = %s, want miscompile", rb.Failure.Kind)
	}
}

// TestOracleCheckHonoursDeadline runs a check of a fuel-heavy loop under a
// 50 ms flow deadline, at both IR levels: the check must stop with the
// transient timeout of the unit it checks, long before its 200M steps of
// fuel would run out, and never read as a miscompile.
func TestOracleCheckHonoursDeadline(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	var params []string
	var ports []string
	for i, ty := range k.ArgTypes(s) {
		params = append(params, fmt.Sprintf("%%arg%d: %s", i, ty))
		ports = append(ports, fmt.Sprintf("ptr %%p%d", i))
	}
	spin, err := mlirparser.Parse(fmt.Sprintf(`module {
  func.func @gemm(%s) {
    affine.for %%0 = 0 to 1000000000 step 1 {
    }
    func.return
  }
}
`, strings.Join(params, ", ")))
	if err != nil {
		t.Fatal(err)
	}
	lspin, err := lparser.Parse(fmt.Sprintf("; ModuleID = 't'\n; Flavor: modern\n\ndefine void @gemm(%s) {\nentry:\n  br label %%loop\nloop:\n  br label %%loop\n}\n",
		strings.Join(ports, ", ")))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		level string
		check func(*semOracle) error
	}{
		{"mlir", func(sem *semOracle) error { return sem.afterMLIR("mlir-opt", "canonicalize", spin) }},
		{"llvm", func(sem *semOracle) error { return sem.afterLLVM("llvm-opt", "dce", lspin) }},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		sem := &semOracle{ctx: ctx}
		if err := sem.capture(k.Build(s), k.Name); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = c.check(sem)
		elapsed := time.Since(start)
		cancel()
		f, ok := resilience.AsPassFailure(err)
		if !ok || f.Kind != resilience.KindTimeout || !resilience.Transient(err) {
			t.Fatalf("%s: check under a 50 ms deadline = %v, want a transient timeout failure", c.level, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%s: timed-out check took %v to stop", c.level, elapsed)
		}
	}
}

// TestOversizedAllocFailsReferenceCapture: a memref.alloc past one
// execution's memory budget inside the kernel fails the reference capture
// as an oracle limitation, KindError at oracle/reference, before anything
// of that size is allocated; it is never a miscompile or a panic.
func TestOversizedAllocFailsReferenceCapture(t *testing.T) {
	m, err := mlirparser.Parse(`module {
  func.func @big(%arg0: memref<4xf32>) {
    %0 = memref.alloc() : memref<1048576x1048576xf64>
    %1 = arith.constant 0 : index
    %2 = memref.load %0[%1, %1] : memref<1048576x1048576xf64>
    %3 = arith.truncf %2 : f64 to f32
    memref.store %3, %arg0[%1] : memref<4xf32>
    func.return
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = AdaptorFlowWith(m, "big", Directives{}, hls.DefaultTarget(), Options{VerifySemantics: true})
	wantFailure(t, "oversized memref.alloc", err, resilience.KindError, "oracle", "reference")
	if !errors.Is(err, interp.ErrMemLimit) {
		t.Errorf("reference capture failed with %v, want the memory budget's error", err)
	}
}

// addKernelSrc is an element-wise add over two four-element arrays of ty.
func addKernelSrc(ty string) string {
	return strings.ReplaceAll(`module {
  func.func @addk(%arg0: memref<4xTY>, %arg1: memref<4xTY>) {
    affine.for %i = 0 to 4 {
      %a = affine.load %arg0[%i] : memref<4xTY>
      %b = affine.load %arg1[%i] : memref<4xTY>
      %c = arith.addi %a, %b : TY
      affine.store %c, %arg0[%i] : memref<4xTY>
    }
    func.return
  }
}
`, "TY", ty)
}

// TestCxxFlowRefusesWideIntArrays: the C frontend knows int, float and
// double, so an i64 array printed as int would be read and written four
// bytes at a time — a different program, which the oracle used to blame
// on c-frontend as a miscompile. emit-hlscpp refuses the element type
// instead, while the adaptor flow verifies the same kernel and an i32
// array still goes through the C++ flow clean.
func TestCxxFlowRefusesWideIntArrays(t *testing.T) {
	tgt := hls.DefaultTarget()
	opts := Options{VerifySemantics: true}
	build := func(ty string) *mlir.Module {
		m, err := mlirparser.Parse(addKernelSrc(ty))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	_, err := CxxFlowWith(build("i64"), "addk", Directives{}, tgt, opts)
	f := wantFailure(t, "cxx i64", err, resilience.KindError, "emit-hlscpp", "emit-hlscpp")
	if !strings.Contains(f.Error(), "memref element type i64 has no C type of the same width") {
		t.Errorf("cxx i64: error does not name the element type: %v", f)
	}
	if _, err := AdaptorFlowWith(build("i64"), "addk", Directives{}, tgt, opts); err != nil {
		t.Errorf("adaptor i64: %v", err)
	}
	if _, err := CxxFlowWith(build("i32"), "addk", Directives{}, tgt, opts); err != nil {
		t.Errorf("cxx i32: %v", err)
	}
}
