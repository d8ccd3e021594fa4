package lint

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/mlir"
	"repro/internal/mlir/passes"
)

// MLIRDirectives lints the HLS directive attributes at the MLIR level,
// before lowering discards the structured loops: malformed attribute
// payloads are errors (the invariant subset — a directive pass must never
// emit them), while requests the backend will ignore are warnings. Running
// the same directive vocabulary at both IR levels is what makes the
// subsystem cross-layer: a defect is reported at whichever layer it first
// becomes visible.
func MLIRDirectives(m *mlir.Module) diag.Diagnostics {
	var out diag.Diagnostics
	for _, f := range m.Funcs() {
		fname := mlir.FuncName(f)
		mk := func(sev diag.Severity, op *mlir.Op, msg, suggestion string) {
			out = append(out, diag.Diagnostic{
				Severity: sev, Check: "hls-directives", Func: fname,
				Instr: op.Name, Message: msg, Suggestion: suggestion,
				BlockPos: -1, InstrPos: -1,
			})
		}
		mlir.Walk(f, func(op *mlir.Op) bool {
			if op.Name == mlir.OpAffineFor {
				if ii, ok := op.IntAttr(mlir.AttrII); ok {
					if ii < 1 {
						mk(diag.SevError, op, fmt.Sprintf("hls.ii=%d is not a valid initiation interval", ii),
							"the II must be at least 1")
					}
					if !op.HasAttr(mlir.AttrPipeline) {
						mk(diag.SevWarning, op, "hls.ii without hls.pipeline has no effect", "")
					}
				}
				if u, ok := op.IntAttr(mlir.AttrUnroll); ok && u != -1 && u < 2 {
					mk(diag.SevError, op, fmt.Sprintf("hls.unroll=%d is not a valid unroll factor", u),
						"use a factor >= 2, or -1 for full unrolling")
				}
				if op.HasAttr(mlir.AttrPipeline) && hasNestedFor(op) {
					mk(diag.SevWarning, op, "hls.pipeline on a non-innermost loop is ignored", "")
				}
			}
			if op.Name == mlir.OpFunc {
				for _, na := range op.Attrs {
					key, a := na.Name, na.Value
					if len(key) > len(mlir.AttrPartition) && key[:len(mlir.AttrPartition)+1] == mlir.AttrPartition+"." {
						spec, ok := passes.ParsePartitionAttr(a)
						if !ok {
							mk(diag.SevError, op, fmt.Sprintf("malformed array-partition attribute %s", key),
								"the payload must be [kind, factor, dim]")
							continue
						}
						switch spec.Kind {
						case "cyclic", "block", "complete":
						default:
							mk(diag.SevError, op, fmt.Sprintf("array-partition attribute %s has unknown kind %q", key, spec.Kind),
								"use cyclic, block, or complete")
						}
					}
				}
			}
			return true
		})
	}
	out.Sort()
	return out
}

// MLIRInvariants converts MLIRDirectives' error-severity findings into a
// single error (nil when clean) — the check verify-each runs after every
// MLIR pass (the flows and mlir-opt -verify-each).
func MLIRInvariants(m *mlir.Module) error {
	return MLIRDirectives(m).AsError()
}

// hasNestedFor reports whether another affine.for nests inside op.
func hasNestedFor(op *mlir.Op) bool {
	nested := false
	mlir.Walk(op, func(o *mlir.Op) bool {
		if o != op && o.Name == mlir.OpAffineFor {
			nested = true
			return false
		}
		return true
	})
	return nested
}
