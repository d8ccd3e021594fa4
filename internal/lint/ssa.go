package lint

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/llvm"
)

// checkSSADominance verifies that every instruction operand's definition
// dominates its use. llvm.Verify checks name uniqueness and phi/pred
// consistency but not dominance, so a pass that hoists a use above its def
// (or leaves a use of an instruction in a deleted block) passes Verify and
// miscompiles downstream; this check catches it at the offending pass.
func checkSSADominance(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "ssa-dominance"
	for _, b := range ctx.F.Blocks {
		if !ctx.CFG.Reachable(b) {
			continue // dominance is vacuous in dead code
		}
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				d, ok := a.(*llvm.Instr)
				if !ok {
					continue
				}
				db := d.Parent
				if db == nil || db.Parent != ctx.F {
					out = append(out, ctx.diag(diag.SevError, check, b, in,
						fmt.Sprintf("operand %s is defined in a block no longer attached to @%s",
							d.Ident(), ctx.F.Name),
						"the pass that removed the defining block must also rewrite its uses"))
					continue
				}
				if !ctx.CFG.Reachable(db) {
					out = append(out, ctx.diag(diag.SevError, check, b, in,
						fmt.Sprintf("operand %s is defined in unreachable block %%%s but used in reachable code",
							d.Ident(), db.Name), ""))
					continue
				}
				if in.Op == llvm.OpPhi {
					// A phi use is live on the incoming edge: the def must
					// dominate the incoming block's exit.
					pb := in.Blocks[ai]
					if pb == nil || !ctx.CFG.Reachable(pb) {
						continue
					}
					if !ctx.Dom.Dominates(db, pb) {
						out = append(out, ctx.diag(diag.SevError, check, b, in,
							fmt.Sprintf("phi incoming %s from %%%s is not dominated by its definition in %%%s",
								d.Ident(), pb.Name, db.Name), ""))
					}
					continue
				}
				if db == b {
					if ctx.InstrPos(d) >= ctx.InstrPos(in) {
						out = append(out, ctx.diag(diag.SevError, check, b, in,
							fmt.Sprintf("operand %s is used before its definition later in %%%s",
								d.Ident(), b.Name), ""))
					}
					continue
				}
				if !ctx.Dom.Dominates(db, b) {
					out = append(out, ctx.diag(diag.SevError, check, b, in,
						fmt.Sprintf("operand %s (defined in %%%s) does not dominate this use in %%%s",
							d.Ident(), db.Name, b.Name), ""))
				}
			}
		}
	}
	return out
}
