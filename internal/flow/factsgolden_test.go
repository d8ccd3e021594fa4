package flow

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitwidth"
	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
	"repro/internal/translate"
)

// factsDigest hashes everything the three forward analyses answer about
// every defined function of lm: per block, whether known bits reached it,
// whether intervals and SCCP call it unreachable, SCCP's branch constant,
// and at that block, for every parameter and integer instruction, the
// interval, the known bits and SCCP's constant.
func factsDigest(lm *llvm.Module) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	flag := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, f := range lm.Funcs {
		if f.IsDecl || len(f.Blocks) == 0 {
			continue
		}
		a := hls.Analyze(f)
		iv, kb, cp := a.Intervals(), bitwidth.Known(a.Loops), a.SCCP()
		var vals []llvm.Value
		for _, p := range f.Params {
			vals = append(vals, p)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Ty != nil && in.Ty.IsInt() {
					vals = append(vals, in)
				}
			}
		}
		h.Write([]byte(f.Name))
		for _, b := range f.Blocks {
			flag(kb.Reached(b))
			flag(iv.Unreachable(b))
			flag(cp.Unreachable(b))
			c, ok := cp.BranchConst(b)
			flag(ok)
			put(uint64(c))
			for _, v := range vals {
				if r := iv.At(b, v); r.Empty {
					h.Write([]byte{'E'})
				} else {
					h.Write([]byte{'I'})
					put(uint64(r.Lo))
					put(uint64(r.Hi))
				}
				k := kb.At(b, v)
				put(k.Zero)
				put(k.One)
				c, ok := cp.ConstOf(b, v)
				flag(ok)
				put(uint64(c))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// goldenModules calls visit with every module the facts and analysis
// goldens digest: for every polybench kernel at MINI and every generated
// corpus kernel, both flows' final modules under each execution-golden
// configuration, and the adaptor flow's module after translate and after
// the adaptor under the plain configuration.
func goldenModules(t *testing.T, visit func(top, label, form string, lm *llvm.Module)) {
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
		kernels = append(kernels, kernel{mlir.FuncName(m.Funcs()[0]), func() *mlir.Module {
			m, _ := parser.Parse(string(text))
			return m
		}})
	}
	tgt := hls.DefaultTarget()
	for _, k := range kernels {
		top := k.top
		for ci, c := range execGoldenConfigs {
			fail := func(form string, err error) {
				t.Fatalf("%s %s %s: %v", top, c.label, form, err)
			}
			if ci == 0 {
				m := k.build()
				r := newRunner("adaptor", m, top, Options{})
				if err := r.run(r.mlirOpt(nil, c.d, true)); err != nil {
					fail("mlir-opt", err)
				}
				if err := lower.AffineToSCF(m); err != nil {
					fail("affine-to-scf", err)
				}
				if err := lower.SCFToCF(m); err != nil {
					fail("scf-to-cf", err)
				}
				lm, err := translate.Translate(m, translate.Options{EmitLifetimeMarkers: true})
				if err != nil {
					fail("translate", err)
				}
				visit(top, c.label, "translated", lm)
				if _, err := core.Adapt(lm, core.Options{TopFunc: top}); err != nil {
					fail("adaptor", err)
				}
				visit(top, c.label, "adapted", lm)
			}
			ares, err := AdaptorFlow(k.build(), top, c.d, tgt)
			if err != nil {
				fail("adaptor flow", err)
			}
			visit(top, c.label, "adaptor-final", ares.LLVM)
			cres, err := CxxFlow(k.build(), top, c.d, tgt)
			if err != nil {
				fail("cxx flow", err)
			}
			visit(top, c.label, "cxx-final", cres.LLVM)
		}
	}
}

// factsGoldenReport digests the solved facts of every module goldenModules
// visits.
func factsGoldenReport(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	goldenModules(t, func(top, label, form string, lm *llvm.Module) {
		fmt.Fprintf(&sb, "%s %s %s %s\n", top, label, form, factsDigest(lm))
	})
	return sb.String()
}

// TestFactsGoldenAllKernels pins what the interval, known-bits and SCCP
// analyses answer on every kernel, recorded with the map-based
// environments the shared dense one replaced. Like the execution golden it
// is a fixed record with no regenerate switch: a diff means a solved fact
// changed.
func TestFactsGoldenAllKernels(t *testing.T) {
	checkGolden(t, "facts", factsGoldenReport(t), "facts_golden.txt")
}

// checkGolden fails t at the first line where report got differs from the
// fixed record testdata/file.
func checkGolden(t *testing.T, what, got, file string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s golden drift at line %d:\n got  %s\n want %s", what, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s golden has %d lines, report %d", what, len(wl), len(gl))
}
