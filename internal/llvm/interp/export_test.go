package interp

import (
	"fmt"
	"slices"

	"repro/internal/llvm"
)

// CompileFresh compiles the named function into new storage, never a
// released program's.
func CompileFresh(mod *llvm.Module, name string) (*Program, error) {
	p := new(Program)
	if _, err := p.compile(mod, name, false); err != nil {
		return nil, err
	}
	return p, nil
}

// Equal reports whether p and q execute identically: the same code, slots,
// constants (floats by bit pattern), GEP strides, call graph and entry ABI.
// Names, attributes and loop metadata never reach a program. It is the
// field-by-field reference the tests hold ProgramKey to.
func (p *Program) Equal(q *Program) bool {
	if p == q {
		return true
	}
	if p == nil || q == nil || !slices.Equal(p.params, q.params) || len(p.funcs) != len(q.funcs) {
		return false
	}
	for i := range p.funcs {
		a, b := &p.funcs[i], &q.funcs[i]
		if a.nparams != b.nparams || a.nslots != b.nslots || a.ntracked != b.ntracked ||
			!slices.Equal(a.code, b.code) || !slices.Equal(a.consts, b.consts) ||
			!slices.Equal(a.steps, b.steps) || !slices.Equal(a.args, b.args) {
			return false
		}
	}
	return true
}

// Diff names the first field in which p and q differ, the diagnostics
// included, or returns "" when their contents are identical.
func Diff(p, q *Program) string {
	if !slices.Equal(p.params, q.params) {
		return "params differ"
	}
	if len(p.funcs) != len(q.funcs) {
		return fmt.Sprintf("%d functions, want %d", len(p.funcs), len(q.funcs))
	}
	errText := func(errs []error) []string {
		var out []string
		for _, e := range errs {
			out = append(out, e.Error())
		}
		return out
	}
	for i := range p.funcs {
		a, b := &p.funcs[i], &q.funcs[i]
		for _, d := range []struct {
			name string
			same bool
		}{
			{"nparams", a.nparams == b.nparams},
			{"nslots", a.nslots == b.nslots},
			{"ntracked", a.ntracked == b.ntracked},
			{"code", slices.Equal(a.code, b.code)},
			{"consts", slices.Equal(a.consts, b.consts)},
			{"steps", slices.Equal(a.steps, b.steps)},
			{"args", slices.Equal(a.args, b.args)},
			{"name", a.name == b.name},
			{"errs", slices.Equal(errText(a.errs), errText(b.errs))},
			{"undef", slices.Equal(a.undef, b.undef)},
			{"sites", slices.Equal(a.sites, b.sites)},
		} {
			if !d.same {
				return fmt.Sprintf("function %d: %s differs", i, d.name)
			}
		}
	}
	return ""
}
