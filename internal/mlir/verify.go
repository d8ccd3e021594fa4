package mlir

import (
	"fmt"
	"sync/atomic"
)

// VerifyError describes a structural violation found by Verify.
type VerifyError struct {
	Op  *Op
	Msg string
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify: %s: %s", e.Op.Name, e.Msg)
}

// Verify checks structural invariants of the module: parent links, block
// terminators, operand/result typing for known ops, and def-before-use
// (structural dominance for single-block regions, CFG dominance for
// multi-block regions). It stamps the values it walks, so it needs the
// same exclusive access to the module as a pass.
func (m *Module) Verify() error {
	for _, f := range m.Body().Ops {
		if f.Name != OpFunc {
			continue
		}
		if errs := verifyFunc(f); len(errs) > 0 {
			return errs[0]
		}
	}
	return nil
}

// walks counts verifier walks. A walk stamps each value with its own
// number while the value is in scope, so a stamp of another walk, or one
// cleared when the walk left the value's region, reads as out of scope.
// A walk needs only a number no other walk has, so walks over different
// modules share the counter from any goroutine.
var walks atomic.Uint64

// verifier is one walk over a function.
type verifier struct {
	walk uint64
	errs []error
}

func verifyFunc(f *Op) []error {
	v := verifier{walk: walks.Add(1)}
	if len(f.Regions) != 1 {
		v.fail(f, "func.func must have exactly one region")
		return v.errs
	}
	v.region(f.Regions[0])
	return v.errs
}

func (v *verifier) fail(op *Op, format string, args ...any) {
	v.errs = append(v.errs, &VerifyError{Op: op, Msg: fmt.Sprintf(format, args...)})
}

// enter brings vs into the walk's scope; leave takes them out again.
func (v *verifier) enter(vs []*Value) {
	for _, x := range vs {
		if x != nil {
			x.scope = v.walk
		}
	}
}

func leave(vs []*Value) {
	for _, x := range vs {
		if x != nil {
			x.scope = 0
		}
	}
}

// region checks r's blocks; its block arguments and results are in scope
// inside r only.
func (v *verifier) region(r *Region) {
	if len(r.Blocks) == 1 {
		b := r.Blocks[0]
		v.enter(b.Args)
		v.blockOps(b)
	} else if len(r.Blocks) > 1 {
		// Multi-block (cf-level) region: approximate dominance by making
		// every block's args and all op results visible region-wide, then
		// separately check CFG properties.
		for _, b := range r.Blocks {
			v.enter(b.Args)
			for _, op := range b.Ops {
				v.enter(op.Results)
			}
		}
		for _, b := range r.Blocks {
			if t := b.Terminator(); t == nil || !t.IsTerminator() {
				v.fail(r.parent, "block lacks terminator")
			}
			v.blockOps(b)
		}
	}
	for _, b := range r.Blocks {
		leave(b.Args)
		for _, op := range b.Ops {
			leave(op.Results)
		}
	}
}

func (v *verifier) blockOps(b *Block) {
	for i, op := range b.Ops {
		if op.parent != b {
			v.fail(op, "parent link broken")
		}
		for oi, x := range op.Operands {
			if x == nil {
				v.fail(op, "nil operand %d", oi)
				continue
			}
			if x.scope != v.walk {
				v.fail(op, "operand %d does not dominate use", oi)
			}
		}
		if op.IsTerminator() && i != len(b.Ops)-1 {
			v.fail(op, "terminator %s not at end of block", op.Name)
		}
		v.errs = append(v.errs, verifyOpTyping(op)...)
		for _, r := range op.Regions {
			if r.parent != op {
				v.fail(op, "region parent link broken")
			}
			v.region(r)
		}
		v.enter(op.Results)
	}
}

func verifyOpTyping(op *Op) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, &VerifyError{Op: op, Msg: fmt.Sprintf(format, args...)})
	}
	wantOperands := func(n int) bool {
		if len(op.Operands) != n {
			fail("want %d operands, have %d", n, len(op.Operands))
			return false
		}
		return true
	}

	switch op.Name {
	case OpAddI, OpSubI, OpMulI, OpDivSI, OpRemSI, OpMinSI, OpMaxSI:
		if wantOperands(2) {
			if !op.Operands[0].Type().IsIntOrIndex() {
				fail("integer op on %s", op.Operands[0].Type())
			}
			if !op.Operands[0].Type().Equal(op.Operands[1].Type()) {
				fail("operand type mismatch")
			}
		}
	case OpAddF, OpSubF, OpMulF, OpDivF:
		if wantOperands(2) {
			if !op.Operands[0].Type().IsFloat() {
				fail("float op on %s", op.Operands[0].Type())
			}
			if !op.Operands[0].Type().Equal(op.Operands[1].Type()) {
				fail("operand type mismatch")
			}
		}
	case OpNegF:
		if wantOperands(1) && !op.Operands[0].Type().IsFloat() {
			fail("negf on %s", op.Operands[0].Type())
		}
	case OpCmpI:
		if wantOperands(2) && !op.Operands[0].Type().IsIntOrIndex() {
			fail("cmpi on %s", op.Operands[0].Type())
		}
	case OpCmpF:
		if wantOperands(2) && !op.Operands[0].Type().IsFloat() {
			fail("cmpf on %s", op.Operands[0].Type())
		}
	case OpSelect:
		if wantOperands(3) {
			if !op.Operands[0].Type().Equal(I1()) {
				fail("select condition must be i1")
			}
			if !op.Operands[1].Type().Equal(op.Operands[2].Type()) {
				fail("select arm type mismatch")
			}
		}
	case OpConstant:
		if !op.HasAttr(AttrValue) {
			fail("constant without value attribute")
		}
	case OpLoad:
		if len(op.Operands) < 1 {
			fail("load without memref")
		} else if mt := op.Operands[0].Type(); !mt.IsMemRef() {
			fail("load from non-memref %s", mt)
		} else if len(op.Operands)-1 != len(mt.Shape) {
			fail("load index count %d != rank %d", len(op.Operands)-1, len(mt.Shape))
		}
	case OpStore:
		if len(op.Operands) < 2 {
			fail("store without value/memref")
		} else if mt := op.Operands[1].Type(); !mt.IsMemRef() {
			fail("store to non-memref %s", mt)
		} else if len(op.Operands)-2 != len(mt.Shape) {
			fail("store index count %d != rank %d", len(op.Operands)-2, len(mt.Shape))
		}
	case OpAffineLoad, OpAffineStore:
		v := AffineAccessView{op}
		mt := v.MemRef().Type()
		if !mt.IsMemRef() {
			fail("affine access on non-memref %s", mt)
			break
		}
		m := v.Map()
		if m == nil {
			fail("affine access without map")
			break
		}
		if len(m.Exprs) != len(mt.Shape) {
			fail("access map results %d != rank %d", len(m.Exprs), len(mt.Shape))
		}
		if m.NumDims+m.NumSyms != len(v.MapOperands()) {
			fail("access map arity %d != operands %d", m.NumDims+m.NumSyms, len(v.MapOperands()))
		}
	case OpAffineFor:
		fv := AffineForView{op}
		if len(op.Regions) != 1 || len(op.Regions[0].Blocks) != 1 {
			fail("affine.for must have a single-block region")
			break
		}
		if len(fv.Body().Args) != 1 || !fv.Body().Args[0].Type().IsIndex() {
			fail("affine.for body must take a single index argument")
		}
		if fv.LowerMap() == nil || fv.UpperMap() == nil {
			fail("affine.for missing bound maps")
			break
		}
		if fv.Step() <= 0 {
			fail("affine.for step must be positive")
		}
		lb := fv.LowerMap()
		ub := fv.UpperMap()
		n, _ := op.IntAttr(AttrLBCount)
		if int(n) != lb.NumDims+lb.NumSyms {
			fail("lower bound operand count %d != map arity %d", n, lb.NumDims+lb.NumSyms)
		}
		if len(op.Operands)-int(n) != ub.NumDims+ub.NumSyms {
			fail("upper bound operand count mismatch")
		}
		if t := fv.Body().Terminator(); t == nil || t.Name != OpAffineYield {
			fail("affine.for body must end with affine.yield")
		}
	case OpSCFFor:
		if wantOperands(3) {
			for i := 0; i < 3; i++ {
				if !op.Operands[i].Type().IsIndex() {
					fail("scf.for bound %d must be index", i)
				}
			}
		}
		if len(op.Regions) != 1 || len(op.Regions[0].Blocks) != 1 {
			fail("scf.for must have a single-block region")
		}
	case OpCondBr:
		if len(op.Succs) != 2 {
			fail("cond_br needs two successors")
		}
	case OpBr:
		if len(op.Succs) != 1 {
			fail("br needs one successor")
		}
	}
	return errs
}
