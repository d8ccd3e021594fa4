// Package passes implements the MLIR-level transformation passes the HLS
// flow uses: canonicalization, CSE, affine loop unrolling, and the HLS
// directive annotation passes (pipeline, unroll, array partition, flatten,
// dataflow) whose attributes travel through lowering into LLVM metadata.
package passes

import (
	"fmt"

	"repro/internal/mlir"
)

// Pass transforms a module in place.
type Pass interface {
	Name() string
	Run(m *mlir.Module) error
}

// Parameterized is implemented by passes whose behavior depends on
// constructor arguments (a pipeline II, an unroll factor, a partition
// spec). Params returns a canonical rendering of those arguments; the
// incremental-compilation layer folds it into the unit's memo key so two
// pipelines differing only in a pass parameter never share a record.
type Parameterized interface {
	Params() string
}

// PassManager runs a pipeline of passes, verifying after each.
type PassManager struct {
	passes []Pass
	// VerifyEach enables module verification after every pass (default on
	// via NewPassManager).
	VerifyEach bool
	// AfterPass, when non-nil, runs after each pass's verification; a
	// non-nil error aborts the pipeline attributed to the named pass.
	// mlir-opt's -verify-each injects the lint invariant checks here,
	// keeping this package free of a lint dependency.
	AfterPass func(passName string, m *mlir.Module) error
}

// NewPassManager returns a pass manager that verifies after each pass.
func NewPassManager() *PassManager { return &PassManager{VerifyEach: true} }

// Add appends passes to the pipeline.
func (pm *PassManager) Add(ps ...Pass) *PassManager {
	pm.passes = append(pm.passes, ps...)
	return pm
}

// Run executes the pipeline.
func (pm *PassManager) Run(m *mlir.Module) error {
	for _, p := range pm.passes {
		if err := p.Run(m); err != nil {
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if pm.VerifyEach {
			if err := m.Verify(); err != nil {
				return fmt.Errorf("verification after pass %s: %w", p.Name(), err)
			}
		}
		if pm.AfterPass != nil {
			if err := pm.AfterPass(p.Name(), m); err != nil {
				return fmt.Errorf("invariant violation after pass %s: %w", p.Name(), err)
			}
		}
	}
	return nil
}

// PassParams returns the pass's canonical parameter string ("" for
// parameterless passes) — the component of the incremental memo key that
// distinguishes two instances of the same pass constructed with different
// arguments.
func PassParams(p Pass) string {
	if pp, ok := p.(Parameterized); ok {
		return pp.Params()
	}
	return ""
}

// funcPass adapts a per-function transformation. params is the canonical
// rendering of the pass's constructor arguments for Parameterized.
type funcPass struct {
	name   string
	params string
	fn     func(f *mlir.Op) error
}

// Name implements Pass.
func (p funcPass) Name() string { return p.name }

// Params implements Parameterized.
func (p funcPass) Params() string { return p.params }

// Run implements Pass.
func (p funcPass) Run(m *mlir.Module) error {
	for _, f := range m.Funcs() {
		if err := p.fn(f); err != nil {
			return err
		}
	}
	return nil
}
