package lower

import (
	"fmt"

	"repro/internal/mlir"
)

// SCFToCF flattens scf.for and scf.if into an explicit block CFG with
// cf.br/cf.cond_br terminators. Loop-carried HLS directive attributes are
// moved onto the loop's back-edge branch (the cf analogue of LLVM's
// !llvm.loop latch metadata).
func SCFToCF(m *mlir.Module) error {
	for _, f := range m.Funcs() {
		if err := lowerSCFInFunc(f); err != nil {
			return err
		}
		// Terminate any fall-through entry (functions whose body had no
		// explicit return would already be invalid; nothing to do).
	}
	return m.Verify()
}

// lowerSCFInFunc lowers the function's scf ops in one scan of its
// top-level blocks. Lowering an op ends its block with a branch and
// inserts the op's blocks (and the split-off rest of the block) right
// after it, so the scan resumes at the next block: nested scf ops surface
// there as outer ones are lowered, and no block before it holds one.
func lowerSCFInFunc(f *mlir.Op) error {
	region := f.Regions[0]
	for i := 0; i < len(region.Blocks); i++ {
		for _, op := range region.Blocks[i].Ops {
			if op.Name != mlir.OpSCFFor && op.Name != mlir.OpSCFIf {
				continue
			}
			if op.Name == mlir.OpSCFFor {
				if err := lowerSCFFor(op); err != nil {
					return err
				}
			} else {
				lowerSCFIf(op)
			}
			break
		}
	}
	return nil
}

// lowerSCFFor rewrites
//
//	before; scf.for %iv = %lb to %ub step %st { body }; after
//
// into
//
//	before:  cf.br header(%lb)
//	header(%iv): %c = cmpi slt %iv,%ub ; cf.cond_br %c, body, cont
//	body:    ...; %next = addi %iv,%st ; cf.br header(%next)   <- loop attrs
//	cont:    after
func lowerSCFFor(op *mlir.Op) error {
	blk := op.Block()
	region := blk.Region()
	lb, ub, st := op.Operands[0], op.Operands[1], op.Operands[2]

	cont := blk.SplitBlock(op)
	blk.Remove(op) // detach the scf.for itself

	// The body block keeps its ops; its induction variable, used only
	// inside the body, becomes the header's index argument.
	bodyBlk := op.Regions[0].Blocks[0]
	iv := bodyBlk.Args[0]
	bodyBlk.Args = nil
	header := mlir.NewBlock()
	iv.Ty, iv.Owner, iv.ArgNo = mlir.Index(), header, 0
	header.Args = []*mlir.Value{iv}
	region.InsertBlockAfter(header, blk)
	region.InsertBlockAfter(bodyBlk, header)

	// before -> header(lb)
	br := mlir.NewOp(mlir.OpBr, []*mlir.Value{lb}, nil)
	br.Succs = []*mlir.Block{header}
	blk.Append(br)

	// header: cond_br (iv < ub), body, cont
	cmp := mlir.NewOp(mlir.OpCmpI, []*mlir.Value{iv, ub}, []*mlir.Type{mlir.I1()})
	cmp.SetAttr(mlir.AttrPredicate, mlir.StringAttr(mlir.PredSLT))
	header.Append(cmp)
	cbr := mlir.NewOp(mlir.OpCondBr, []*mlir.Value{cmp.Result(0)}, nil)
	cbr.Succs = []*mlir.Block{bodyBlk, cont}
	cbr.SetAttr(mlir.AttrTrueCount, mlir.I(0))
	cbr.SetAttr(mlir.AttrFalseCount, mlir.I(0))
	header.Append(cbr)

	// body: replace scf.yield with iv+step branch back to header.
	yield := bodyBlk.Terminator()
	if yield == nil || yield.Name != mlir.OpSCFYield {
		return fmt.Errorf("lower: scf.for body must end in scf.yield")
	}
	bodyBlk.Remove(yield)
	next := mlir.NewOp(mlir.OpAddI, []*mlir.Value{iv, st}, []*mlir.Type{mlir.Index()})
	bodyBlk.Append(next)
	latch := mlir.NewOp(mlir.OpBr, []*mlir.Value{next.Result(0)}, nil)
	latch.Succs = []*mlir.Block{header}
	// Loop directives ride on the latch branch.
	latch.Attrs, op.Attrs = op.Attrs, nil
	bodyBlk.Append(latch)
	return nil
}

// lowerSCFIf rewrites scf.if into cond_br/then/else/cont blocks.
func lowerSCFIf(op *mlir.Op) {
	blk := op.Block()
	region := blk.Region()
	cond := op.Operands[0]

	cont := blk.SplitBlock(op)
	blk.Remove(op)

	thenBlk := op.Regions[0].Blocks[0]
	region.InsertBlockAfter(thenBlk, blk)
	replaceYieldWithBr(thenBlk, cont)

	elseTarget := cont
	if len(op.Regions) > 1 {
		elseBlk := op.Regions[1].Blocks[0]
		region.InsertBlockAfter(elseBlk, thenBlk)
		replaceYieldWithBr(elseBlk, cont)
		elseTarget = elseBlk
	}

	cbr := mlir.NewOp(mlir.OpCondBr, []*mlir.Value{cond}, nil)
	cbr.Succs = []*mlir.Block{thenBlk, elseTarget}
	cbr.SetAttr(mlir.AttrTrueCount, mlir.I(0))
	cbr.SetAttr(mlir.AttrFalseCount, mlir.I(0))
	blk.Append(cbr)
}

func replaceYieldWithBr(b *mlir.Block, dest *mlir.Block) {
	if t := b.Terminator(); t != nil && t.Name == mlir.OpSCFYield {
		b.Remove(t)
	}
	br := mlir.NewOp(mlir.OpBr, nil, nil)
	br.Succs = []*mlir.Block{dest}
	b.Append(br)
}
