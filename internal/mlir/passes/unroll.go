package passes

import (
	"fmt"

	"repro/internal/mlir"
)

// LoopUnroll returns a pass that unrolls affine.for loops.
//
// When markedOnly is true, only loops carrying the hls.unroll directive are
// unrolled, by their directive factor. Otherwise every innermost loop with a
// constant trip count is unrolled by factor (factor <= 1 disables; a factor
// equal to or exceeding the trip count fully unrolls).
func LoopUnroll(factor int, markedOnly bool) Pass {
	params := fmt.Sprintf("factor=%d|marked=%t", factor, markedOnly)
	return funcPass{name: "affine-loop-unroll", params: params, fn: func(f *mlir.Op) error {
		return unrollFunc(f, factor, markedOnly)
	}}
}

func unrollFunc(f *mlir.Op, factor int, markedOnly bool) error {
	// Collect targets first: unrolling invalidates walk order.
	var targets []*mlir.Op
	mlir.Walk(f, func(op *mlir.Op) bool {
		if op.Name != mlir.OpAffineFor {
			return true
		}
		if markedOnly {
			if _, ok := op.IntAttr(mlir.AttrUnroll); ok {
				targets = append(targets, op)
			}
			return true
		}
		if isInnermostLoop(op) {
			targets = append(targets, op)
		}
		return true
	})
	for _, loop := range targets {
		k := factor
		if markedOnly {
			kv, _ := loop.IntAttr(mlir.AttrUnroll)
			k = int(kv)
		}
		if k <= 1 {
			loop.RemoveAttr(mlir.AttrUnroll)
			continue
		}
		if err := unrollLoop(loop, k); err != nil {
			return err
		}
	}
	return nil
}

func isInnermostLoop(op *mlir.Op) bool {
	inner := false
	mlir.Walk(op, func(o *mlir.Op) bool {
		if o != op && o.Name == mlir.OpAffineFor {
			inner = true
			return false
		}
		return true
	})
	return !inner
}

// unrollLoop unrolls one affine.for by factor k. Constant-bound loops are
// required (the polybench suite and the lowering pipeline only produce
// constant or IV-dependent bounds; IV-dependent loops are left untouched by
// the caller's collection logic when bounds are non-constant).
func unrollLoop(loop *mlir.Op, k int) error {
	fv := mlir.AffineForView{Op: loop}
	lo, hi, ok := fv.ConstantBounds()
	if !ok {
		// Non-constant bounds: drop the directive, keep the loop.
		loop.RemoveAttr(mlir.AttrUnroll)
		return nil
	}
	step := fv.Step()
	trip := int64(0)
	if hi > lo {
		trip = (hi - lo + step - 1) / step
	}

	if int64(k) >= trip {
		return fullyUnroll(loop, lo, hi, step)
	}

	mainTrips := trip - trip%int64(k)
	newHi := lo + mainTrips*step
	origBody := fv.Body()

	// Build the replacement body: k copies of the original, with shifted IVs.
	newBody := mlir.NewBlock(mlir.Index())
	newIV := newBody.Args[0]
	b := mlir.NewBuilder(newBody)
	for j := 0; j < k; j++ {
		iv := newIV
		if j > 0 {
			iv = b.AffineApply(mlir.NewMap(1, 0, mlir.Add(mlir.Dim(0), mlir.Const(int64(j)*step))), newIV)
		}
		vmap := map[*mlir.Value]*mlir.Value{origBody.Args[0]: iv}
		mlir.CloneBlockOpsInto(origBody, newBody, vmap, true)
	}
	b.Create(mlir.OpAffineYield, nil, nil)

	// Epilogue for the remainder iterations.
	if trip%int64(k) != 0 {
		epi := mlir.NewOp(mlir.OpAffineFor, nil, nil)
		epi.SetAttr(mlir.AttrLowerMap, mlir.AffineMapAttr{Map: mlir.ConstantMap(newHi)})
		epi.SetAttr(mlir.AttrUpperMap, mlir.AffineMapAttr{Map: mlir.ConstantMap(hi)})
		epi.SetAttr(mlir.AttrStep, mlir.I(step))
		epi.SetAttr(mlir.AttrLBCount, mlir.I(0))
		er := epi.AddRegion()
		eb := mlir.NewBlock(mlir.Index())
		er.AddBlock(eb)
		vmap := map[*mlir.Value]*mlir.Value{origBody.Args[0]: eb.Args[0]}
		mlir.CloneBlockOpsInto(origBody, eb, vmap, true)
		eb.Append(mlir.NewOp(mlir.OpAffineYield, nil, nil))
		loop.Block().InsertAfter(epi, loop)
	}

	// Retarget the main loop.
	loop.SetAttr(mlir.AttrUpperMap, mlir.AffineMapAttr{Map: mlir.ConstantMap(newHi)})
	loop.SetAttr(mlir.AttrStep, mlir.I(step*int64(k)))
	loop.RemoveAttr(mlir.AttrUnroll)
	loop.Regions[0].Blocks = nil
	loop.Regions[0].AddBlock(newBody)
	return nil
}

// fullyUnroll replaces the loop with one body copy per iteration.
func fullyUnroll(loop *mlir.Op, lo, hi, step int64) error {
	fv := mlir.AffineForView{Op: loop}
	origBody := fv.Body()
	parent := loop.Block()
	if parent == nil {
		return fmt.Errorf("unroll: loop has no parent block")
	}
	insertAfter := loop
	for ivVal := lo; ivVal < hi; ivVal += step {
		c := mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{mlir.Index()})
		c.SetAttr(mlir.AttrValue, mlir.IntAttr{Value: ivVal, Ty: mlir.Index()})
		parent.InsertAfter(c, insertAfter)
		insertAfter = c
		vmap := map[*mlir.Value]*mlir.Value{origBody.Args[0]: c.Result(0)}
		for i, op := range origBody.Ops {
			if i == len(origBody.Ops)-1 && op.IsTerminator() {
				break
			}
			clone := mlir.CloneOp(op, vmap, nil)
			parent.InsertAfter(clone, insertAfter)
			insertAfter = clone
		}
	}
	loop.Erase()
	return nil
}
