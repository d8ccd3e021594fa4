// Package lower implements the progressive dialect lowerings of the MLIR HLS
// flow: affine → scf (bound maps and access maps expanded into arith index
// computations) and scf → cf (structured loops and conditionals flattened
// into a block CFG with block-argument phis), the same structural pipeline
// upstream MLIR runs before mlir-translate.
package lower

import (
	"fmt"

	"repro/internal/mlir"
)

// AffineToSCF lowers every affine op in the module to the scf/memref/arith
// level. HLS directive attributes on loops are preserved on the produced
// scf.for ops.
func AffineToSCF(m *mlir.Module) error {
	for _, f := range m.Funcs() {
		if err := lowerAffineIn(f); err != nil {
			return err
		}
	}
	return m.Verify()
}

// lowerAffineIn lowers the affine ops nested in op in one pre-order
// pass that meets each op once. Lowering an op only inserts ops before it
// in its block, so the pass steps over them; an affine.for's body moves
// into the scf.for that replaces it and is lowered there.
func lowerAffineIn(op *mlir.Op) error {
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			for i := 0; i < len(b.Ops); i++ {
				o, n := b.Ops[i], len(b.Ops)
				var err error
				switch o.Name {
				case mlir.OpAffineFor:
					o, err = lowerAffineFor(o)
				case mlir.OpAffineLoad, mlir.OpAffineStore:
					err = lowerAffineAccess(o)
				case mlir.OpAffineApply:
					err = lowerAffineApply(o)
				}
				if err != nil {
					return err
				}
				// Step to the last op the lowering left in o's place.
				i += len(b.Ops) - n
				if err := lowerAffineIn(o); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// expandExpr materializes an affine expression as arith ops inserted before
// ref in ref's block, returning the resulting index value.
func expandExpr(e *mlir.AffineExpr, dims, syms []*mlir.Value, blk *mlir.Block, ref *mlir.Op) *mlir.Value {
	emit := func(op *mlir.Op) *mlir.Value {
		blk.InsertBefore(op, ref)
		return op.Result(0)
	}
	constant := func(v int64) *mlir.Value {
		c := mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{mlir.Index()})
		c.SetAttr(mlir.AttrValue, mlir.IntAttr{Value: v, Ty: mlir.Index()})
		return emit(c)
	}
	binary := func(name string, l, r *mlir.Value) *mlir.Value {
		return emit(mlir.NewOp(name, []*mlir.Value{l, r}, []*mlir.Type{mlir.Index()}))
	}
	switch e.Kind {
	case mlir.AffineDim:
		return dims[e.Pos]
	case mlir.AffineSym:
		return syms[e.Pos]
	case mlir.AffineConst:
		return constant(e.Val)
	case mlir.AffineAdd:
		return binary(mlir.OpAddI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineMul:
		return binary(mlir.OpMulI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineMod:
		// HLS index expressions are non-negative, where remsi == mod.
		return binary(mlir.OpRemSI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineFloorDiv:
		return binary(mlir.OpDivSI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineCeilDiv:
		// ceildiv d == (x + d - 1) floordiv d for non-negative x.
		l := expandExpr(e.LHS, dims, syms, blk, ref)
		d := e.RHS.Val
		biased := binary(mlir.OpAddI, l, constant(d-1))
		return binary(mlir.OpDivSI, biased, constant(d))
	}
	panic("lower: invalid affine expression")
}

// expandMap materializes every result of an affine map before ref.
func expandMap(m *mlir.AffineMap, operands []*mlir.Value, blk *mlir.Block, ref *mlir.Op) []*mlir.Value {
	dims := operands[:m.NumDims]
	syms := operands[m.NumDims:]
	out := make([]*mlir.Value, len(m.Exprs))
	for i, e := range m.Exprs {
		out[i] = expandExpr(e, dims, syms, blk, ref)
	}
	return out
}

// lowerAffineFor replaces op with an scf.for that takes over its body, and
// returns the scf.for.
func lowerAffineFor(op *mlir.Op) (*mlir.Op, error) {
	fv := mlir.AffineForView{Op: op}
	blk := op.Block()
	if blk == nil {
		return nil, fmt.Errorf("lower: detached affine.for")
	}
	lb := expandMap(fv.LowerMap(), fv.LowerOperands(), blk, op)[0]
	ub := expandMap(fv.UpperMap(), fv.UpperOperands(), blk, op)[0]
	stepC := mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{mlir.Index()})
	stepC.SetAttr(mlir.AttrValue, mlir.IntAttr{Value: fv.Step(), Ty: mlir.Index()})
	blk.InsertBefore(stepC, op)

	scfFor := mlir.NewOp(mlir.OpSCFFor, []*mlir.Value{lb, ub, stepC.Result(0)}, nil)
	// Carry HLS directives through, in the discarded affine.for's list.
	attrs := op.Attrs[:0]
	for _, a := range op.Attrs {
		switch a.Name {
		case mlir.AttrLowerMap, mlir.AttrUpperMap, mlir.AttrStep, mlir.AttrLBCount:
		default:
			attrs = append(attrs, a)
		}
	}
	clear(op.Attrs[len(attrs):])
	scfFor.Attrs, op.Attrs = attrs, nil
	// Move the body region wholesale; rewrite the terminator.
	body := fv.Body()
	r := scfFor.AddRegion()
	r.AddBlock(body)
	if t := body.Terminator(); t != nil && t.Name == mlir.OpAffineYield {
		body.Remove(t)
		body.Append(mlir.NewOp(mlir.OpSCFYield, t.Operands, nil))
	}
	op.Regions = nil
	blk.InsertBefore(scfFor, op)
	op.Erase()
	return scfFor, nil
}

// lowerAffineAccess expands the access map before op. An affine.load
// becomes a memref.load in place, keeping its result and so its uses; an
// affine.store is replaced by a memref.store.
func lowerAffineAccess(op *mlir.Op) error {
	v := mlir.AffineAccessView{Op: op}
	blk := op.Block()
	idxs := expandMap(v.Map(), v.MapOperands(), blk, op)
	if op.Name == mlir.OpAffineLoad {
		op.Operands = append([]*mlir.Value{v.MemRef()}, idxs...)
		op.Name, op.Attrs = mlir.OpLoad, nil
		return nil
	}
	store := mlir.NewOp(mlir.OpStore, append([]*mlir.Value{v.StoredValue(), v.MemRef()}, idxs...), nil)
	blk.InsertBefore(store, op)
	op.Erase()
	return nil
}

func lowerAffineApply(op *mlir.Op) error {
	m, _ := op.MapAttr(mlir.AttrMap)
	blk := op.Block()
	val := expandMap(m, op.Operands, blk, op)[0]
	mlir.ReplaceAllUses(mlir.EnclosingFunc(op), op.Result(0), val)
	op.Erase()
	return nil
}
