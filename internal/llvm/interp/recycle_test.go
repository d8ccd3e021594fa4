package interp_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// llvmForm is one LLVM form the oracle executes, with the argument shapes
// of its kernel.
type llvmForm struct {
	label  string
	top    string
	mod    *llvm.Module
	shapes []*mlir.Type
}

var oracleForms struct {
	once  sync.Once
	forms []llvmForm
	err   error
}

// loadOracleForms collects, for every kernel at MINI under every
// dse.Space() configuration and both flows, the LLVM forms the oracle
// executes: the translated, adapted and final adaptor-flow modules and the
// C frontend's module. Forms printing the same are kept once.
func loadOracleForms(t *testing.T) []llvmForm {
	t.Helper()
	oracleForms.once.Do(func() {
		seen := map[string]bool{}
		add := func(label, top, text string, shapes []*mlir.Type) error {
			if seen[text] {
				return nil
			}
			seen[text] = true
			m, err := parser.Parse(text)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			oracleForms.forms = append(oracleForms.forms, llvmForm{label, top, m, shapes})
			return nil
		}
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				oracleForms.err = err
				return
			}
			var shapes []*mlir.Type
			for _, a := range mlir.FuncBody(k.Build(s).FindFunc(k.Name)).Args {
				shapes = append(shapes, a.Type())
			}
			for _, c := range dse.Space() {
				label := k.Name + " " + c.Label
				entering := map[string]string{}
				observe := func(stage, pass, ir string) { entering[stage+"/"+pass] = ir }
				res, err := flow.AdaptorFlowWith(k.Build(s), k.Name, c.D, hls.DefaultTarget(), flow.Options{Observer: observe})
				if err != nil {
					oracleForms.err = fmt.Errorf("%s adaptor: %w", label, err)
					return
				}
				cxx, err := flow.CxxFlow(k.Build(s), k.Name, c.D, hls.DefaultTarget())
				if err != nil {
					oracleForms.err = fmt.Errorf("%s cxx: %w", label, err)
					return
				}
				for _, f := range []struct{ form, text string }{
					{"translated", entering["adaptor/adaptor"]},
					{"adapted", entering["llvm-opt/simplifycfg"]},
					{"final", res.LLVM.Print()},
					{"c-frontend", cxx.LLVM.Print()},
				} {
					if err := add(label+" "+f.form, k.Name, f.text, shapes); err != nil {
						oracleForms.err = err
						return
					}
				}
			}
		}
	})
	if oracleForms.err != nil {
		t.Fatal(oracleForms.err)
	}
	return oracleForms.forms
}

// runOnOracleInputs executes p on the oracle's inputs for f — each
// argument filled with the polybench pattern and passed in the ABI the
// program's parameters spell — and returns the output memory or the error
// text. With short the first argument gets half its memory, so accesses
// past it trap.
func runOnOracleInputs(p *interp.Program, f llvmForm, short bool) string {
	mems := make([]*interp.Mem, len(f.shapes))
	for ai, t := range f.shapes {
		n := int(t.NumElements())
		eb := 8
		if t.Elem.Width == 32 {
			eb = 4
		}
		mem := interp.NewMem(int64(n * eb))
		for i := 0; i < n; i++ {
			v := float64((i*7+ai*13)%17) / 17
			switch {
			case t.Elem.IsFloat() && eb == 4:
				mem.SetFloat32(i, float32(v))
			case t.Elem.IsFloat():
				mem.SetFloat64(i, v)
			case eb == 4:
				mem.SetInt32(i, int32((i*7+ai*13)%17))
			default:
				binary.LittleEndian.PutUint64(mem.Bytes[i*8:], uint64((i*7+ai*13)%17))
			}
		}
		if short && ai == 0 {
			mem.Bytes = mem.Bytes[:len(mem.Bytes)/2]
		}
		mems[ai] = mem
	}
	var args []interp.Arg
	if len(p.Params()) == len(f.shapes) {
		for _, m := range mems {
			args = append(args, interp.PtrArg(m, 0))
		}
	} else {
		for ai, t := range f.shapes {
			args = append(args, interp.PtrArg(mems[ai], 0), interp.PtrArg(mems[ai], 0), interp.IntArg(0))
			for _, d := range t.Shape {
				args = append(args, interp.IntArg(d))
			}
			for d := range t.Shape {
				stride := int64(1)
				for _, e := range t.Shape[d+1:] {
					stride *= e
				}
				args = append(args, interp.IntArg(stride))
			}
		}
	}
	if _, _, err := p.Run(context.Background(), interp.DefaultFuel, args...); err != nil {
		return "error: " + err.Error()
	}
	var out []byte
	for _, m := range mems {
		out = append(out, m.Bytes...)
	}
	return string(out)
}

// TestRecycledProgramsMatchFresh compiles every LLVM form the oracle
// executes into the storage of a just-released program compiled from
// another kernel, and requires the result to be identical to a compile
// into new storage — every field, diagnostics included — and to compute
// the same memory, or fail with the same text, on the oracle's inputs.
func TestRecycledProgramsMatchFresh(t *testing.T) {
	forms := loadOracleForms(t)
	reused := 0
	for i, f := range forms {
		j := (i + len(forms)/2) % len(forms)
		for forms[j].top == f.top {
			j = (j + 1) % len(forms)
		}
		prev, err := interp.Compile(forms[j].mod, forms[j].top)
		if err != nil {
			t.Fatal(err)
		}
		prev.Release()
		got, err := interp.Compile(f.mod, f.top)
		if err != nil {
			t.Fatal(err)
		}
		if got == prev {
			reused++
		}
		fresh, err := interp.CompileFresh(f.mod, f.top)
		if err != nil {
			t.Fatal(err)
		}
		if d := interp.Diff(got, fresh); d != "" || !got.Equal(fresh) || got.Digest() != fresh.Digest() {
			t.Errorf("%s after releasing %s: recycled program differs from a fresh compile: %s", f.label, forms[j].label, d)
			continue
		}
		for _, short := range []bool{false, true} {
			if a, b := runOnOracleInputs(got, f, short), runOnOracleInputs(fresh, f, short); a != b {
				t.Errorf("%s (short input %v): recycled and fresh programs disagree", f.label, short)
			}
		}
	}
	// A released program is dropped at random under the race detector;
	// most compiles must still have reused one, or nothing was tested.
	if reused < len(forms)/2 {
		t.Errorf("only %d of %d compiles reused the released program", reused, len(forms))
	}
}
