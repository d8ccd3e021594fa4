package mlir

import (
	"fmt"
	"slices"
)

// CompileFresh compiles the named function into new storage, never a
// released program's.
func (m *Module) CompileFresh(funcName string) (*Program, error) {
	p := new(Program)
	if err := m.compile(p, funcName); err != nil {
		return nil, err
	}
	return p, nil
}

// Equal reports whether p and q execute identically: the same code, slots,
// constants (floats by bit pattern), allocation types and argument types.
// Attributes the interpreter never reads (hls.* directives) and value names
// never reach a program. It is the field-by-field reference the tests hold
// Digest to.
func (p *Program) Equal(q *Program) bool {
	if p == q {
		return true
	}
	return p != nil && q != nil && p.nslots == q.nslots &&
		slices.EqualFunc(p.args, q.args, (*Type).Equal) &&
		slices.Equal(p.code, q.code) && slices.Equal(p.idx, q.idx) &&
		slices.Equal(p.consts, q.consts) && slices.EqualFunc(p.types, q.types, (*Type).Equal)
}

// Diff names the first field in which p and q differ, the diagnostics
// included, or returns "" when their contents are identical.
func Diff(p, q *Program) string {
	errText := func(errs []error) []string {
		var out []string
		for _, e := range errs {
			out = append(out, e.Error())
		}
		return out
	}
	for _, d := range []struct {
		name string
		same bool
	}{
		{"args", slices.EqualFunc(p.args, q.args, (*Type).Equal)},
		{"nslots", p.nslots == q.nslots},
		{"code", slices.Equal(p.code, q.code)},
		{"idx", slices.Equal(p.idx, q.idx)},
		{"consts", slices.Equal(p.consts, q.consts)},
		{"types", slices.EqualFunc(p.types, q.types, (*Type).Equal)},
		{"name", p.name == q.name},
		{"errs", slices.Equal(errText(p.errs), errText(q.errs))},
	} {
		if !d.same {
			return fmt.Sprintf("%s differs", d.name)
		}
	}
	return ""
}
