package flow

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	lpasses "repro/internal/llvm/passes"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/parser"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/translate"
)

// execGoldenConfigs are the directive sets the execution golden covers:
// the plain kernel, a materialized unroll with a matching partition, and a
// pipelined, partitioned, flattened nest.
var execGoldenConfigs = []struct {
	label string
	d     Directives
}{
	{"base", Directives{}},
	{"unroll4+part4", Directives{Unroll: 4, Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 4, Dim: 0}}},
	{"pipeII1+part2+flat", Directives{Pipeline: true, II: 1, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0}}},
}

// execInput returns the deterministic input value of element i of argument
// ai (the oracle's fill pattern).
func execInput(ai, i int) float64 { return float64((i*7+ai*13)%17) / 17 }

// digestMLIR executes top on fresh deterministic buffers and digests the
// output memory at element precision.
func digestMLIR(t *testing.T, m *mlir.Module, top string) string {
	t.Helper()
	body := mlir.FuncBody(m.FindFunc(top))
	bufs := make([]*mlir.MemBuf, len(body.Args))
	for ai, a := range body.Args {
		b := mlir.NewMemBuf(a.Type())
		for i := range b.F {
			b.F[i] = execInput(ai, i)
			if a.Type().Elem.Width == 32 {
				b.F[i] = float64(float32(b.F[i]))
			}
		}
		for i := range b.I {
			b.I[i] = int64((i*7 + ai*13) % 17)
		}
		bufs[ai] = b
	}
	if err := m.Interpret(top, bufs...); err != nil {
		t.Fatalf("interpret: %v", err)
	}
	h := sha256.New()
	var w [8]byte
	for _, b := range bufs {
		for _, v := range b.F {
			if b.Ty.Elem.Width == 32 {
				binary.LittleEndian.PutUint32(w[:4], math.Float32bits(float32(v)))
				h.Write(w[:4])
			} else {
				binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
				h.Write(w[:])
			}
		}
		for _, v := range b.I {
			if b.Ty.Elem.Width == 32 {
				binary.LittleEndian.PutUint32(w[:4], uint32(v))
				h.Write(w[:4])
			} else {
				binary.LittleEndian.PutUint64(w[:], uint64(v))
				h.Write(w[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// digestLLVM executes top over flat buffers shaped like shapes, passing
// them in the descriptor ABI when desc is set and one pointer per port
// otherwise, and digests the output memory.
func digestLLVM(t *testing.T, lm *llvm.Module, top string, shapes []*mlir.Type, desc bool) string {
	t.Helper()
	var args []interp.Arg
	mems := make([]*interp.Mem, len(shapes))
	for ai, ty := range shapes {
		n := ty.NumElements()
		eb := int64(8)
		if ty.Elem.Width == 32 {
			eb = 4
		}
		mem := interp.NewMem(n * eb)
		for i := 0; i < int(n); i++ {
			switch {
			case ty.Elem.IsFloat() && eb == 4:
				mem.SetFloat32(i, float32(execInput(ai, i)))
			case ty.Elem.IsFloat():
				mem.SetFloat64(i, execInput(ai, i))
			case eb == 4:
				mem.SetInt32(i, int32((i*7+ai*13)%17))
			default:
				binary.LittleEndian.PutUint64(mem.Bytes[i*8:], uint64((i*7+ai*13)%17))
			}
		}
		mems[ai] = mem
		if !desc {
			args = append(args, interp.PtrArg(mem, 0))
			continue
		}
		args = append(args, interp.PtrArg(mem, 0), interp.PtrArg(mem, 0), interp.IntArg(0))
		for _, d := range ty.Shape {
			args = append(args, interp.IntArg(d))
		}
		stride := int64(1)
		strides := make([]int64, len(ty.Shape))
		for d := len(ty.Shape) - 1; d >= 0; d-- {
			strides[d] = stride
			stride *= ty.Shape[d]
		}
		for _, s := range strides {
			args = append(args, interp.IntArg(s))
		}
	}
	if _, _, err := interp.NewMachine(lm).Run(context.Background(), top, args...); err != nil {
		t.Fatalf("execute: %v", err)
	}
	h := sha256.New()
	for _, mem := range mems {
		h.Write(mem.Bytes)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// execGoldenReport executes every IR form the semantic oracle runs — affine,
// scf and cf-lowered MLIR, then descriptor-ABI, direct-ABI and C-frontend
// LLVM — for every polybench kernel at MINI and every generated corpus
// kernel, under both flows, one digest per form.
func execGoldenReport(t *testing.T) string {
	t.Helper()
	type kernel struct {
		top   string
		build func() *mlir.Module
	}
	var kernels []kernel
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kernel{k.Name, func() *mlir.Module { return k.Build(s) }})
	}
	// The generated fuzz corpus adds integer index arithmetic, casts and
	// divisions to the polybench op mix.
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
		m, err := parser.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		top := mlir.FuncName(m.Funcs()[0])
		kernels = append(kernels, kernel{top, func() *mlir.Module {
			m, _ := parser.Parse(string(text))
			return m
		}})
	}
	var sb strings.Builder
	for _, k := range kernels {
		top := k.top
		var shapes []*mlir.Type
		for _, a := range mlir.FuncBody(k.build().FindFunc(top)).Args {
			shapes = append(shapes, a.Type())
		}
		for _, c := range execGoldenConfigs {
			line := func(form, digest string) {
				fmt.Fprintf(&sb, "%s %s %s %s\n", top, c.label, form, digest)
			}
			fail := func(form string, err error) {
				t.Fatalf("%s %s %s: %v", top, c.label, form, err)
			}

			m := k.build()
			line("mlir-pristine", digestMLIR(t, m, top))
			if err := mlirPrep(m, top, c.d, true, "adaptor", Options{}); err != nil {
				fail("mlir-opt", err)
			}
			line("mlir-affine", digestMLIR(t, m, top))
			if err := lower.AffineToSCF(m); err != nil {
				fail("affine-to-scf", err)
			}
			line("mlir-scf", digestMLIR(t, m, top))
			if err := lower.SCFToCF(m); err != nil {
				fail("scf-to-cf", err)
			}
			line("mlir-cf", digestMLIR(t, m, top))
			lm, err := translate.Translate(m, translate.Options{EmitLifetimeMarkers: true})
			if err != nil {
				fail("translate", err)
			}
			line("llvm-descriptor", digestLLVM(t, lm, top, shapes, true))
			if _, err := core.Adapt(lm, core.Options{TopFunc: top}); err != nil {
				fail("adaptor", err)
			}
			line("llvm-adapted", digestLLVM(t, lm, top, shapes, false))
			pm := lpasses.NewPassManager().Add(lpasses.PassSimplifyCFG, lpasses.PassConstFold,
				lpasses.PassStrengthReduce, lpasses.PassCSE, lpasses.PassDCE)
			if err := pm.Run(lm); err != nil {
				fail("llvm-opt", err)
			}
			line("llvm-final", digestLLVM(t, lm, top, shapes, false))

			cm := k.build()
			if err := mlirPrep(cm, top, c.d, false, "cxx", Options{}); err != nil {
				fail("cxx mlir-opt", err)
			}
			line("mlir-cxx", digestMLIR(t, cm, top))
			src, err := cgen.Emit(cm)
			if err != nil {
				fail("emit-hlscpp", err)
			}
			clm, err := cfront.Compile(src, cfront.Options{Top: top})
			if err != nil {
				fail("c-frontend", err)
			}
			line("llvm-cfront", digestLLVM(t, clm, top, shapes, false))
		}
	}
	return sb.String()
}

// TestExecGoldenAllKernels pins the output memory of every executed IR form
// to digests recorded with the tree-walking interpreters the compiled
// programs replaced: execution must stay bit-identical to them, so the
// golden is a fixed record, not something to regenerate.
func TestExecGoldenAllKernels(t *testing.T) {
	got := execGoldenReport(t)
	want, err := os.ReadFile(filepath.Join("testdata", "exec_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("execution golden drift at line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("execution golden has %d lines, report %d", len(wl), len(gl))
	}
}
