package passes

import (
	"fmt"
	"strconv"

	"repro/internal/mlir"
)

// PipelineInnermost returns a pass that marks every innermost affine.for
// with the HLS pipeline directive and target initiation interval ii.
func PipelineInnermost(ii int) Pass {
	return funcPass{name: "hls-pipeline-innermost", params: fmt.Sprintf("ii=%d", ii), fn: func(f *mlir.Op) error {
		mlir.Walk(f, func(op *mlir.Op) bool {
			if op.Name == mlir.OpAffineFor && isInnermostLoop(op) {
				op.SetAttr(mlir.AttrPipeline, mlir.UnitAttr{})
				op.SetAttr(mlir.AttrII, mlir.I(int64(ii)))
			}
			return true
		})
		return nil
	}}
}

// MarkUnroll returns a pass that attaches the hls.unroll directive with the
// given factor to every innermost loop (to be materialized later by
// LoopUnroll(0, true) or carried to the backend as metadata).
func MarkUnroll(factor int) Pass {
	return funcPass{name: "hls-mark-unroll", params: fmt.Sprintf("factor=%d", factor), fn: func(f *mlir.Op) error {
		mlir.Walk(f, func(op *mlir.Op) bool {
			if op.Name == mlir.OpAffineFor && isInnermostLoop(op) {
				op.SetAttr(mlir.AttrUnroll, mlir.I(int64(factor)))
			}
			return true
		})
		return nil
	}}
}

// MarkFlatten returns a pass that attaches the hls.flatten directive to
// every loop whose body is exactly one nested loop (a perfect-nest level),
// mirroring #pragma HLS loop_flatten: the backend then runs the nest as one
// flat pipeline instead of refilling the inner pipeline per outer iteration.
func MarkFlatten() Pass {
	return funcPass{name: "hls-mark-flatten", fn: func(f *mlir.Op) error {
		mlir.Walk(f, func(op *mlir.Op) bool {
			if op.Name != mlir.OpAffineFor {
				return true
			}
			if onlyNestedLoop(op) != nil {
				op.SetAttr(mlir.AttrFlatten, mlir.UnitAttr{})
			}
			return true
		})
		return nil
	}}
}

// PartitionSpec describes an array partitioning directive, mirroring
// #pragma HLS array_partition.
type PartitionSpec struct {
	Kind   string // "cyclic", "block", or "complete"
	Factor int    // ignored for complete
	Dim    int    // 0-based dimension
}

// Attr renders the spec as an attribute payload.
func (s PartitionSpec) Attr() mlir.Attr {
	return mlir.ArrayAttr{
		mlir.StringAttr(s.Kind),
		mlir.I(int64(s.Factor)),
		mlir.I(int64(s.Dim)),
	}
}

// ParsePartitionAttr decodes a partition attribute payload.
func ParsePartitionAttr(a mlir.Attr) (PartitionSpec, bool) {
	arr, ok := a.(mlir.ArrayAttr)
	if !ok || len(arr) != 3 {
		return PartitionSpec{}, false
	}
	kind, ok1 := arr[0].(mlir.StringAttr)
	factor, ok2 := arr[1].(mlir.IntAttr)
	dim, ok3 := arr[2].(mlir.IntAttr)
	if !ok1 || !ok2 || !ok3 {
		return PartitionSpec{}, false
	}
	return PartitionSpec{Kind: string(kind), Factor: int(factor.Value), Dim: int(dim.Value)}, true
}

// PartitionArgAttrKey returns the function attribute key carrying the
// partition spec for argument i.
func PartitionArgAttrKey(i int) string {
	return mlir.AttrPartition + ".arg" + strconv.Itoa(i)
}

// PartitionArg returns a pass that attaches an array-partition directive to
// argument argIdx of the named function.
func PartitionArg(funcName string, argIdx int, spec PartitionSpec) Pass {
	params := fmt.Sprintf("%s/%d/%s/%d/%d", funcName, argIdx, spec.Kind, spec.Factor, spec.Dim)
	return funcPass{name: "hls-array-partition", params: params, fn: func(f *mlir.Op) error {
		if mlir.FuncName(f) != funcName {
			return nil
		}
		if argIdx < 0 || argIdx >= len(mlir.FuncBody(f).Args) {
			return fmt.Errorf("array-partition: %s has no argument %d", funcName, argIdx)
		}
		f.SetAttr(PartitionArgAttrKey(argIdx), spec.Attr())
		return nil
	}}
}

// PartitionAllArgs returns a pass that partitions every memref argument of
// every function with the same spec (the common "partition everything
// cyclically" configuration in HLS DSE).
func PartitionAllArgs(spec PartitionSpec) Pass {
	params := fmt.Sprintf("%s/%d/%d", spec.Kind, spec.Factor, spec.Dim)
	return funcPass{name: "hls-array-partition-all", params: params, fn: func(f *mlir.Op) error {
		for i, a := range mlir.FuncBody(f).Args {
			if a.Type().IsMemRef() {
				f.SetAttr(PartitionArgAttrKey(i), spec.Attr())
			}
		}
		return nil
	}}
}

// MarkDataflow returns a pass that attaches the hls.dataflow directive to
// the named function, mirroring #pragma HLS dataflow: independent top-level
// loops execute as concurrent tasks. The backend checks legality (no shared
// written arrays between tasks) and ignores the directive otherwise, as
// Vitis does for unprovable cases.
func MarkDataflow(funcName string) Pass {
	return funcPass{name: "hls-mark-dataflow", params: funcName, fn: func(f *mlir.Op) error {
		if mlir.FuncName(f) == funcName {
			f.SetAttr(mlir.AttrDataflow, mlir.UnitAttr{})
		}
		return nil
	}}
}

// MarkTop returns a pass that marks the named function as the HLS top-level
// (the synthesis entry point whose ports become the accelerator interface).
func MarkTop(funcName string) Pass {
	return funcPass{name: "hls-mark-top", params: funcName, fn: func(f *mlir.Op) error {
		if mlir.FuncName(f) == funcName {
			f.SetAttr(mlir.AttrTopFunc, mlir.UnitAttr{})
		}
		return nil
	}}
}

// onlyNestedLoop returns the single affine.for making up outer's body (plus
// the terminator), or nil when the nest is not perfect.
func onlyNestedLoop(outer *mlir.Op) *mlir.Op {
	body := mlir.AffineForView{Op: outer}.Body()
	var inner *mlir.Op
	for _, op := range body.Ops {
		switch {
		case op.Name == mlir.OpAffineFor:
			if inner != nil {
				return nil
			}
			inner = op
		case op.IsTerminator():
		default:
			return nil
		}
	}
	return inner
}
