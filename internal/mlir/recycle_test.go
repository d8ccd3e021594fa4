package mlir_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
)

// mlirForm is one MLIR form the oracle executes.
type mlirForm struct {
	label string
	top   string
	mod   *mlir.Module
}

var oracleForms struct {
	once  sync.Once
	forms []mlirForm
	err   error
}

// loadOracleForms collects the MLIR forms the oracle executes for every
// kernel at MINI: the pristine module, and the cf-lowered module of the
// adaptor flow under every dse.Space() configuration. Forms printing the
// same are kept once.
func loadOracleForms(t *testing.T) []mlirForm {
	t.Helper()
	oracleForms.once.Do(func() {
		seen := map[string]bool{}
		add := func(label, top, text string) error {
			if seen[text] {
				return nil
			}
			seen[text] = true
			m, err := parser.Parse(text)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			oracleForms.forms = append(oracleForms.forms, mlirForm{label, top, m})
			return nil
		}
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				oracleForms.err = err
				return
			}
			if err := add(k.Name+" pristine", k.Name, k.Build(s).Print()); err != nil {
				oracleForms.err = err
				return
			}
			for _, c := range dse.Space() {
				label := k.Name + " " + c.Label + " cf-lowered"
				var lowered string
				observe := func(stage, pass, ir string) {
					if stage == "translate" {
						lowered = ir
					}
				}
				if _, err := flow.AdaptorFlowWith(k.Build(s), k.Name, c.D, hls.DefaultTarget(), flow.Options{Observer: observe}); err != nil {
					oracleForms.err = fmt.Errorf("%s: %w", label, err)
					return
				}
				if err := add(label, k.Name, lowered); err != nil {
					oracleForms.err = err
					return
				}
			}
		}
	})
	if oracleForms.err != nil {
		t.Fatal(oracleForms.err)
	}
	return oracleForms.forms
}

// runOnOracleInputs executes p on the oracle's inputs for f's arguments,
// each filled with the polybench pattern, and returns the output buffers
// or the error text.
func runOnOracleInputs(p *mlir.Program, f mlirForm) string {
	var bufs []*mlir.MemBuf
	for ai, a := range mlir.FuncBody(f.mod.FindFunc(f.top)).Args {
		b := mlir.NewMemBuf(a.Type())
		for i := range b.F {
			b.F[i] = float64((i*7+ai*13)%17) / 17
			if a.Type().Elem.Width == 32 {
				b.F[i] = float64(float32(b.F[i]))
			}
		}
		for i := range b.I {
			b.I[i] = int64((i*7 + ai*13) % 17)
		}
		bufs = append(bufs, b)
	}
	if err := p.Run(context.Background(), mlir.DefaultFuel, bufs...); err != nil {
		return "error: " + err.Error()
	}
	var out []any
	for _, b := range bufs {
		out = append(out, b.F, b.I)
	}
	return fmt.Sprint(out...)
}

// TestRecycledProgramsMatchFresh compiles every MLIR form the oracle
// executes into the storage of a just-released program compiled from
// another kernel, and requires the result to be identical to a compile
// into new storage — every field, diagnostics included — and to compute
// the same buffers, or fail with the same text, on the oracle's inputs.
func TestRecycledProgramsMatchFresh(t *testing.T) {
	forms := loadOracleForms(t)
	reused := 0
	for i, f := range forms {
		j := (i + len(forms)/2) % len(forms)
		for forms[j].top == f.top {
			j = (j + 1) % len(forms)
		}
		prev, err := forms[j].mod.Compile(forms[j].top)
		if err != nil {
			t.Fatal(err)
		}
		prev.Release()
		got, err := f.mod.Compile(f.top)
		if err != nil {
			t.Fatal(err)
		}
		if got == prev {
			reused++
		}
		fresh, err := f.mod.CompileFresh(f.top)
		if err != nil {
			t.Fatal(err)
		}
		if d := mlir.Diff(got, fresh); d != "" || !got.Equal(fresh) {
			t.Errorf("%s after releasing %s: recycled program differs from a fresh compile: %s", f.label, forms[j].label, d)
			continue
		}
		if runOnOracleInputs(got, f) != runOnOracleInputs(fresh, f) {
			t.Errorf("%s: recycled and fresh programs disagree", f.label)
		}
	}
	// A released program is dropped at random under the race detector;
	// most compiles must still have reused one, or nothing was tested.
	if reused < len(forms)/2 {
		t.Errorf("only %d of %d compiles reused the released program", reused, len(forms))
	}
}
