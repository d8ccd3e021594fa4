package interp_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm/interp"
	"repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

var checkedForms struct {
	once  sync.Once
	forms []llvmForm
	err   error
}

// loadCheckedForms collects every distinct LLVM module the oracle checks
// in the verified mix: for every kernel at MINI under every dse.Space()
// configuration and both flows, the module entering each LLVM-level unit
// (what the previous unit's check compiled) and the final module.
func loadCheckedForms(t *testing.T) []llvmForm {
	t.Helper()
	checkedForms.once.Do(func() {
		seen := map[string]bool{}
		var errs []error
		add := func(label, top, text string) {
			if seen[text] {
				return
			}
			seen[text] = true
			m, err := parser.Parse(text)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", label, err))
				return
			}
			checkedForms.forms = append(checkedForms.forms, llvmForm{label: label, top: top, mod: m})
		}
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				checkedForms.err = err
				return
			}
			for _, c := range dse.Space() {
				for _, fl := range []struct {
					kind string
					run  func(*mlir.Module, string, flow.Directives, hls.Target, flow.Options) (*flow.Result, error)
				}{{"adaptor", flow.AdaptorFlowWith}, {"cxx", flow.CxxFlowWith}} {
					label := k.Name + " " + c.Label + " " + fl.kind
					observe := func(stage, pass, ir string) {
						switch stage {
						case "adaptor", "llvm-opt", "synthesis":
							add(label+" entering "+stage+"/"+pass, k.Name, ir)
						}
					}
					res, err := fl.run(k.Build(s), k.Name, c.D, hls.DefaultTarget(), flow.Options{Observer: observe})
					if err != nil {
						checkedForms.err = fmt.Errorf("%s: %w", label, err)
						return
					}
					add(label+" final", k.Name, res.LLVM.Print())
				}
			}
		}
		if len(errs) > 0 {
			checkedForms.err = errs[0]
		}
	})
	if checkedForms.err != nil {
		t.Fatal(checkedForms.err)
	}
	return checkedForms.forms
}

// TestDigestMatchesEqual: over every program the verified mix compiles,
// two programs have the same digest exactly when they are Equal.
func TestDigestMatchesEqual(t *testing.T) {
	forms := loadCheckedForms(t)
	type rep struct {
		label string
		p     *interp.Program
	}
	byDigest := map[[32]byte]rep{}
	var reps []rep
	for _, f := range forms {
		p, err := interp.Compile(f.mod, f.top)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Digest()
		if r, ok := byDigest[d]; ok {
			if !p.Equal(r.p) {
				t.Errorf("%s and %s share a digest but are not Equal", f.label, r.label)
			}
			p.Release()
			continue
		}
		byDigest[d] = rep{f.label, p}
		reps = append(reps, rep{f.label, p})
	}
	for i := range reps {
		for j := i + 1; j < len(reps); j++ {
			if reps[i].p.Equal(reps[j].p) {
				t.Errorf("%s and %s are Equal but their digests differ", reps[i].label, reps[j].label)
			}
		}
	}
	if len(reps) < 100 || len(reps) == len(forms) {
		t.Errorf("%d distinct programs over %d forms: the mix does not exercise the digest", len(reps), len(forms))
	}
	t.Logf("%d forms, %d distinct programs", len(forms), len(reps))
}
