package absint

import (
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// constVal is the flat constant lattice: a known integer constant or
// overdefined. Absence from the environment means "not yet known" (bottom).
type constVal struct {
	over bool
	val  int64
}

// sccpDomain is the sparse-conditional-constant-propagation lattice: a flat
// lattice of height 2 per value, so Widen joins. The solver's edge
// feasibility (constant branch conditions kill edges) provides the
// "sparse conditional" part. Its chief product here is the unreachable
// block set; constant results also feed -explain output.
type sccpDomain struct{}

func (sccpDomain) Top(*llvm.Type) constVal              { return constVal{over: true} }
func (sccpDomain) Const(c int64) constVal               { return constVal{val: c} }
func (sccpDomain) Equal(a, b constVal) bool             { return a == b }
func (d sccpDomain) Widen(prev, next constVal) constVal { return d.Join(prev, next) }

func (sccpDomain) Join(a, b constVal) constVal {
	if a.over || b.over || a.val != b.val {
		return constVal{over: true}
	}
	return a
}

// Refine learns nothing from a compare: a constant condition already
// decides its branch.
func (sccpDomain) Refine(*Env[constVal], *llvm.Instr, bool) bool { return true }

func (sccpDomain) Decides(cv constVal) (nonzero, ok bool) { return cv.val != 0, !cv.over }

// Transfer constant-folds one integer instruction.
func (sccpDomain) Transfer(env *Env[constVal], in *llvm.Instr) constVal {
	arg := func(i int) (int64, bool) {
		cv := env.Get(in.Args[i])
		return cv.val, !cv.over
	}
	bin := func(f func(a, b int64) (int64, bool)) constVal {
		a, oka := arg(0)
		b, okb := arg(1)
		if !oka || !okb {
			return constVal{over: true}
		}
		if v, ok := f(a, b); ok {
			return constVal{val: v}
		}
		return constVal{over: true}
	}
	ok2 := func(v int64) (int64, bool) { return v, true }
	switch in.Op {
	case llvm.OpAdd:
		return bin(func(a, b int64) (int64, bool) { return ok2(a + b) })
	case llvm.OpSub:
		return bin(func(a, b int64) (int64, bool) { return ok2(a - b) })
	case llvm.OpMul:
		return bin(func(a, b int64) (int64, bool) { return ok2(a * b) })
	case llvm.OpSDiv:
		return bin(func(a, b int64) (int64, bool) {
			if b == 0 {
				return 0, false
			}
			return a / b, true
		})
	case llvm.OpSRem:
		return bin(func(a, b int64) (int64, bool) {
			if b == 0 {
				return 0, false
			}
			return a % b, true
		})
	case llvm.OpAnd:
		return bin(func(a, b int64) (int64, bool) { return ok2(a & b) })
	case llvm.OpOr:
		return bin(func(a, b int64) (int64, bool) { return ok2(a | b) })
	case llvm.OpXor:
		return bin(func(a, b int64) (int64, bool) { return ok2(a ^ b) })
	case llvm.OpShl:
		return bin(func(a, b int64) (int64, bool) {
			if b < 0 || b > 63 {
				return 0, false
			}
			return a << uint(b), true
		})
	case llvm.OpLShr:
		return bin(func(a, b int64) (int64, bool) {
			if b < 0 || b > 63 {
				return 0, false
			}
			// Logical shift of the type-width unsigned value, matching the
			// interpreter: drop the sign-extended high bits before shifting.
			u := uint64(a)
			if t := in.Ty; t != nil && t.IsInt() && t.Bits < 64 {
				u &= (uint64(1) << uint(t.Bits)) - 1
			}
			v := int64(u >> uint(b))
			// Re-enter the sign-extended representation (lshr by 0 of a
			// negative value keeps the sign bit set in the type's width).
			if t := in.Ty; t != nil && t.IsInt() && t.Bits < 64 && t.Bits > 0 {
				sh := uint(64 - t.Bits)
				v = v << sh >> sh
			}
			return v, true
		})
	case llvm.OpAShr:
		return bin(func(a, b int64) (int64, bool) {
			if b < 0 || b > 63 {
				return 0, false
			}
			return a >> uint(b), true
		})
	case llvm.OpSExt, llvm.OpZExt, llvm.OpTrunc:
		// Width changes on the nonnegative small constants these modules
		// produce are the identity; anything else goes overdefined.
		cv := env.Get(in.Args[0])
		if cv.over {
			return cv
		}
		if in.Op == llvm.OpSExt || cv.val >= 0 {
			return cv
		}
		return constVal{over: true}
	case llvm.OpICmp:
		a, oka := arg(0)
		b, okb := arg(1)
		if !oka || !okb {
			return constVal{over: true}
		}
		if v, ok := foldICmp(a, b, in.Pred); ok {
			return constVal{val: v}
		}
		return constVal{over: true}
	case llvm.OpSelect:
		c := env.Get(in.Args[0])
		if !c.over {
			if c.val != 0 {
				return env.Get(in.Args[1])
			}
			return env.Get(in.Args[2])
		}
		t, f := env.Get(in.Args[1]), env.Get(in.Args[2])
		if !t.over && !f.over && t.val == f.val {
			return t
		}
		return constVal{over: true}
	}
	return constVal{over: true}
}

func foldICmp(a, b int64, pred string) (int64, bool) {
	toI := func(v bool) (int64, bool) {
		if v {
			return 1, true
		}
		return 0, true
	}
	switch pred {
	case "eq":
		return toI(a == b)
	case "ne":
		return toI(a != b)
	case "slt":
		return toI(a < b)
	case "sle":
		return toI(a <= b)
	case "sgt":
		return toI(a > b)
	case "sge":
		return toI(a >= b)
	case "ult", "ule", "ugt", "uge":
		if a >= 0 && b >= 0 { // signed and unsigned orders agree
			switch pred {
			case "ult":
				return toI(a < b)
			case "ule":
				return toI(a <= b)
			case "ugt":
				return toI(a > b)
			case "uge":
				return toI(a >= b)
			}
		}
	}
	return 0, false
}

// SCCPResult exposes one function's sparse conditional constant propagation.
type SCCPResult struct {
	facts *Facts[constVal]
}

// SCCP runs sparse conditional constant propagation over the function of
// loops.
func SCCP(loops *analysis.LoopInfo) *SCCPResult {
	return &SCCPResult{facts: Solve[constVal](loops, sccpDomain{})}
}

// Unreachable reports whether b is CFG-reachable but provably never
// executed: every path to it requires a branch to go against its constant
// condition.
func (r *SCCPResult) Unreachable(b *llvm.Block) bool { return r.facts.Unreachable(b) }

// ConstOf returns the constant value of v at b's exit, when proven.
func (r *SCCPResult) ConstOf(b *llvm.Block, v llvm.Value) (int64, bool) {
	if cv, ok := r.facts.At(b, v); ok && !cv.over {
		return cv.val, true
	}
	return 0, false
}

// BranchConst returns the proven constant of b's conditional-branch
// condition, for explaining why a successor is unreachable.
func (r *SCCPResult) BranchConst(b *llvm.Block) (int64, bool) {
	term := b.Terminator()
	if term == nil || term.Op != llvm.OpCondBr {
		return 0, false
	}
	return r.ConstOf(b, term.Args[0])
}
