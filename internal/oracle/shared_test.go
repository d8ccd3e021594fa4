package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/llvm/interp"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/parser"
	"repro/internal/translate"
)

// canceled returns a context that is already canceled. A check under it
// returns nil only when it skips execution: a program that runs stops
// before its first step with the context's error (or, under a fuel budget
// too small for one block, with the fuel error).
func canceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// scfLowered returns gemm at MINI lowered to scf, a form whose program
// differs from the pristine one.
func scfLowered(t *testing.T) *mlir.Module {
	t.Helper()
	m := gemmModule(t)
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSharedReferenceSkipsPassedPrograms: two harnesses on equal pristine
// modules share one reference, a program that passed on one returns
// without executing on the other, and a corrupted copy still executes and
// diverges, at both IR levels.
func TestSharedReferenceSkipsPassedPrograms(t *testing.T) {
	ResetShared()
	h1, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	if h1.ref != h2.ref {
		t.Fatal("harnesses on equal pristine modules hold different references")
	}
	if h1 == h2 {
		t.Fatal("New returned one handle twice")
	}
	// New recorded the pristine program's own verdict.
	if err := h2.CheckMLIRContext(canceled(), gemmModule(t)); err != nil {
		t.Fatalf("pristine program executed again: %v", err)
	}

	m, lm := scfLowered(t), translated(t, gemmModule(t))
	if err := h2.CheckMLIRContext(canceled(), m); !errors.Is(err, context.Canceled) {
		t.Fatalf("unverified MLIR program = %v, want it to execute and stop", err)
	}
	if err := h2.CheckLLVMContext(canceled(), lm); !errors.Is(err, context.Canceled) {
		t.Fatalf("unverified LLVM program = %v, want it to execute and stop", err)
	}
	if err := h1.CheckMLIR(m); err != nil {
		t.Fatal(err)
	}
	if err := h1.CheckLLVM(lm); err != nil {
		t.Fatal(err)
	}
	// h2 never ran them, but h1 passed them against the shared reference.
	if err := h2.CheckMLIRContext(canceled(), scfLowered(t)); err != nil {
		t.Fatalf("MLIR program that passed on another harness executed again: %v", err)
	}
	if err := h2.CheckLLVMContext(canceled(), translated(t, gemmModule(t))); err != nil {
		t.Fatalf("LLVM program that passed on another harness executed again: %v", err)
	}

	// Corrupted copies are different programs: they execute and diverge.
	badM := scfLowered(t)
	mlir.Walk(badM.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpAddF {
			o.Name = mlir.OpSubF
			return false
		}
		return true
	})
	badL := translated(t, gemmModule(t))
	corruptFirstFAdd(badL)
	if err := h2.CheckMLIRContext(canceled(), badM); !errors.Is(err, context.Canceled) {
		t.Fatalf("corrupted MLIR program = %v, want it to execute", err)
	}
	if err := h2.CheckLLVMContext(canceled(), badL); !errors.Is(err, context.Canceled) {
		t.Fatalf("corrupted LLVM program = %v, want it to execute", err)
	}
	var d *Divergence
	if err := h2.CheckMLIR(badM); !errors.As(err, &d) {
		t.Fatalf("corrupted MLIR program = %v, want a divergence", err)
	}
	if err := h2.CheckLLVM(badL); !errors.As(err, &d) {
		t.Fatalf("corrupted LLVM program = %v, want a divergence", err)
	}
	// A failed check records nothing: the corruption executes every time.
	if err := h1.CheckLLVM(badL); !errors.As(err, &d) {
		t.Fatalf("corrupted LLVM program on the first harness = %v, want a divergence", err)
	}
}

// TestVerdictSettingsArePerHandle: a verdict vouches only under the
// tolerance and fuel it was reached with, and each handle keeps its own.
// Tightening one harness re-executes on that handle only.
func TestVerdictSettingsArePerHandle(t *testing.T) {
	ResetShared()
	h1, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	nudged := gemmModule(t)
	nudgeFirstFloatConstant(t, nudged)
	if err := h1.CheckMLIR(nudged); err != nil {
		t.Fatalf("a 1-ULP constant change must pass at the default tolerance: %v", err)
	}
	lm := translated(t, gemmModule(t))
	if err := h1.CheckLLVM(lm); err != nil {
		t.Fatal(err)
	}

	h1.MaxULP = 0
	if err := h1.CheckMLIRContext(canceled(), nudged); !errors.Is(err, context.Canceled) {
		t.Fatalf("after tightening the tolerance the check must execute, got %v", err)
	}
	var d *Divergence
	if err := h1.CheckMLIR(nudged); !errors.As(err, &d) {
		t.Fatalf("under MaxULP 0 the nudged program must diverge, got %v", err)
	}
	if err := h2.CheckMLIRContext(canceled(), nudged); err != nil {
		t.Fatalf("another harness's tolerance change made this one execute: %v", err)
	}

	h1.MaxULP = DefaultMaxULP
	h1.Fuel = 10
	if err := h1.CheckLLVM(lm); !errors.Is(err, interp.ErrFuel) {
		t.Fatalf("after cutting the fuel the check must execute and run out, got %v", err)
	}
	if err := h1.CheckMLIR(gemmModule(t)); !errors.Is(err, mlir.ErrFuel) {
		t.Fatalf("after cutting the fuel the pristine program must execute and run out, got %v", err)
	}
	if err := h2.CheckLLVMContext(canceled(), lm); err != nil {
		t.Fatalf("another harness's fuel change made this one execute: %v", err)
	}
	if err := h2.CheckMLIRContext(canceled(), gemmModule(t)); err != nil {
		t.Fatalf("another harness's fuel change made this one execute: %v", err)
	}
}

// shiftFirstFloatConstant adds one to the first non-zero float constant of
// m: the same top with a different pristine body.
func shiftFirstFloatConstant(t *testing.T, m *mlir.Module) {
	t.Helper()
	done := false
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if a, ok := o.Attr(mlir.AttrValue).(mlir.FloatAttr); ok && !done && a.Value != 0 {
			a.Value++
			o.SetAttr(mlir.AttrValue, a)
			done = true
		}
		return true
	})
	if !done {
		t.Fatal("no float constant to shift")
	}
}

// TestReferenceKeyedByPristineBody: the same top over a different pristine
// body gets a reference of its own, which catches a program the first
// reference passes.
func TestReferenceKeyedByPristineBody(t *testing.T) {
	ResetShared()
	ha, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	shifted := gemmModule(t)
	shiftFirstFloatConstant(t, shifted)
	hb, err := New(shifted, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	if ha.ref == hb.ref {
		t.Fatal("a different pristine body shares the first body's reference")
	}
	if n := len(shared.refs); n != 2 {
		t.Fatalf("table holds %d references, want 2", n)
	}
	lm := translated(t, gemmModule(t))
	if err := ha.CheckLLVM(lm); err != nil {
		t.Fatalf("the first body's program against its own reference: %v", err)
	}
	var d *Divergence
	if err := hb.CheckMLIR(gemmModule(t)); !errors.As(err, &d) {
		t.Fatalf("the first body's MLIR program against the shifted reference = %v, want a divergence", err)
	}
	if err := hb.CheckLLVM(lm); !errors.As(err, &d) {
		t.Fatalf("the first body's LLVM program against the shifted reference = %v, want a divergence", err)
	}
}

// TestLargeReferenceStaysPrivate: a reference larger than maxRefBytes is
// never shared, and checks on it still run.
func TestLargeReferenceStaysPrivate(t *testing.T) {
	ResetShared()
	const src = `module {
  func.func @big(%arg0: memref<16384xf64>) {
    affine.for %0 = 0 to 16384 step 1 {
      %1 = affine.load %arg0[%0] : memref<16384xf64>
      %2 = arith.addf %1, %1 : f64
      affine.store %2, %arg0[%0] : memref<16384xf64>
    }
    func.return
  }
}
`
	parse := func() *mlir.Module {
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	h1, err := New(parse(), "big")
	if err != nil {
		t.Fatal(err)
	}
	if h1.ref.bytes <= maxRefBytes {
		t.Fatalf("test reference takes %d bytes, want more than %d", h1.ref.bytes, maxRefBytes)
	}
	h2, err := New(parse(), "big")
	if err != nil {
		t.Fatal(err)
	}
	if h1.ref == h2.ref || len(shared.refs) != 0 || shared.bytes != 0 {
		t.Fatalf("a %d-byte reference was shared", h1.ref.bytes)
	}
	bad := parse()
	mlir.Walk(bad.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpAddF {
			o.Name = mlir.OpSubF
		}
		return true
	})
	var d *Divergence
	if err := h2.CheckMLIR(bad); !errors.As(err, &d) {
		t.Fatalf("check on a private reference = %v, want a divergence", err)
	}
}

// tableWithinBounds reports how the shared table breaks its bounds, or ""
// when it holds at most maxRefs references of at most maxRefBytes each and
// maxTableBytes together, accounts exactly their bytes, and no reference
// holds more than maxVerdicts verdicts.
func tableWithinBounds() string {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if n := len(shared.refs); n > maxRefs {
		return fmt.Sprintf("%d references, bound %d", n, maxRefs)
	}
	if shared.bytes > maxTableBytes {
		return fmt.Sprintf("%d bytes, bound %d", shared.bytes, maxTableBytes)
	}
	var sum int64
	for _, r := range shared.refs {
		sum += r.bytes
		r.verdicts.mu.Lock()
		n := len(r.verdicts.m)
		r.verdicts.mu.Unlock()
		if n > maxVerdicts {
			return fmt.Sprintf("a reference holds %d verdicts, bound %d", n, maxVerdicts)
		}
		if r.bytes > maxRefBytes {
			return fmt.Sprintf("a shared reference takes %d bytes, bound %d", r.bytes, maxRefBytes)
		}
	}
	if sum != shared.bytes {
		return fmt.Sprintf("table accounts %d bytes, its references take %d", shared.bytes, sum)
	}
	return ""
}

// axpySrc is a small kernel whose constant c makes each variant a distinct
// pristine program. A non-negative dead adds an unused constant of that
// value: a distinct program computing what the plain kernel computes.
func axpySrc(c, dead int) string {
	extra := ""
	if dead >= 0 {
		extra = fmt.Sprintf("      %%9 = arith.constant %d : i64\n", dead)
	}
	return fmt.Sprintf(`module {
  func.func @axpy(%%arg0: memref<6xf32>, %%arg1: memref<6xf32>) {
    affine.for %%0 = 0 to 6 step 1 {
      %%1 = affine.load %%arg0[%%0] : memref<6xf32>
      %%2 = arith.constant %d.0 : f32
      %%3 = arith.mulf %%1, %%2 : f32
%s      %%4 = affine.load %%arg1[%%0] : memref<6xf32>
      %%5 = arith.addf %%3, %%4 : f32
      affine.store %%5, %%arg1[%%0] : memref<6xf32>
    }
    func.return
  }
}
`, c, extra)
}

// TestSharedReferenceConcurrent pushes the kgen corpus and more distinct
// synthetic kernels than the table holds through New and checks at every
// IR level, then more passing programs than a reference keeps verdicts for
// through one reference, each from four goroutines. The table must stay
// within its entry and byte bounds after every step, and every reference
// within its verdict cap; under -race it also shows the table, the
// verdicts and the spare buffers are the only shared state and are
// guarded.
func TestSharedReferenceConcurrent(t *testing.T) {
	ResetShared()
	var srcs, labels []string
	corpus, err := filepath.Glob(filepath.Join("..", "kgen", "corpus", "k*.mlir"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("kgen corpus: %v (%d files)", err, len(corpus))
	}
	sort.Strings(corpus)
	for _, path := range corpus {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs, labels = append(srcs, string(text)), append(labels, path)
	}
	for c := 0; c < maxRefs+16; c++ {
		srcs, labels = append(srcs, axpySrc(c, -1)), append(labels, fmt.Sprintf("axpy c=%d", c))
	}
	// concurrently runs step on items 0..n-1 from four goroutines, checking
	// the bounds after each.
	concurrently := func(n int, step func(i int) error) {
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					if err := step(i); err != nil {
						t.Errorf("item %d: %v", i, err)
						return
					}
					if msg := tableWithinBounds(); msg != "" {
						t.Errorf("after item %d: table out of bounds: %s", i, msg)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	concurrently(len(srcs), func(i int) error {
		if err := checkAllLevels(srcs[i]); err != nil {
			return fmt.Errorf("%s: %w", labels[i], err)
		}
		return nil
	})
	if n := len(shared.refs); n < maxRefs/2 {
		t.Errorf("table holds %d references after %d distinct kernels; eviction is too eager", n, len(srcs))
	}

	base, err := parser.Parse(axpySrc(1000, -1))
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(base, "axpy")
	if err != nil {
		t.Fatal(err)
	}
	concurrently(maxVerdicts+32, func(i int) error {
		v, err := parser.Parse(axpySrc(1000, i))
		if err != nil {
			return err
		}
		return h.CheckMLIR(v)
	})
	if n := len(h.ref.verdicts.m); n != maxVerdicts {
		t.Errorf("reference holds %d verdicts after %d distinct passing programs, want the cap %d", n, maxVerdicts+33, maxVerdicts)
	}

	// More checks at once than a reference keeps spare inputs for: the
	// finished sets past maxSpares are let go, so reference.bytes holds.
	var sets [][]*mlir.MemBuf
	for i := 0; i < maxSpares+2; i++ {
		sets = append(sets, h.ref.freshMLIRBufs())
	}
	for _, b := range sets {
		h.ref.mlirBuf.put(b)
	}
	if n := len(h.ref.mlirBuf.sets); n != maxSpares {
		t.Errorf("reference keeps %d spare input sets, want %d", n, maxSpares)
	}
}

// checkAllLevels takes the reference of the module src's first function
// and checks the module's structured, scf, cf and translated forms
// against it.
func checkAllLevels(src string) error {
	m, err := parser.Parse(src)
	if err != nil {
		return err
	}
	top := mlir.FuncName(m.Funcs()[0])
	h, err := New(m, top)
	if err != nil {
		return err
	}
	if err := h.CheckMLIR(m); err != nil {
		return err
	}
	if err := lower.AffineToSCF(m); err != nil {
		return err
	}
	if err := h.CheckMLIR(m); err != nil {
		return err
	}
	if err := lower.SCFToCF(m); err != nil {
		return err
	}
	if err := h.CheckMLIR(m); err != nil {
		return err
	}
	lm, err := translate.Translate(m, translate.Options{})
	if err != nil {
		return err
	}
	return h.CheckLLVM(lm)
}

// TestOversizedArgumentsAreOracleLimitation: arguments past one
// execution's memory budget, or whose size overflows, fail the reference
// capture before anything is allocated, as an oracle limitation.
func TestOversizedArgumentsAreOracleLimitation(t *testing.T) {
	for _, c := range []struct{ ty, want string }{
		{"memref<1048576x1048576xf64>", "argument memory of 8796093022208 bytes with 8388608 in use"},
		{"memref<4294967296x4294967296xf32>", "argument memory size is negative or overflows"},
		{"memref<1024x1025xf64>", "argument memory of 8396800 bytes with 8388608 in use"},
	} {
		src := strings.ReplaceAll(`module {
  func.func @k(%arg0: memref<1024x1024xf64>, %arg1: TY) {
    func.return
  }
}
`, "TY", c.ty)
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(m, "k")
		if !errors.Is(err, interp.ErrMemLimit) || IsMiscompile(err) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, want a memory-budget error (%q) that is not a miscompile", c.ty, err, c.want)
		}
		shapes := []*mlir.Type{mlir.MemRef([]int64{1024, 1024}, mlir.F64())}
		shapes = append(shapes, mlir.FuncBody(m.FindFunc("k")).Args[1].Type())
		lm := translated(t, gemmModule(t))
		if _, err := NewFromLLVM(lm, "gemm", shapes); !errors.Is(err, interp.ErrMemLimit) || IsMiscompile(err) {
			t.Errorf("%s: NewFromLLVM = %v, want a memory-budget error", c.ty, err)
		}
	}
	if n := mlir.MemBufBytes(mlir.MemRef([]int64{4, -5}, mlir.F32())); n != -1 {
		t.Errorf("MemBufBytes of a negative dimension = %d, want -1", n)
	}
}
