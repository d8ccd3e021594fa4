package bitwidth

import (
	"repro/internal/absint"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// typeTopKB is the baseline fact of an integer type: nothing known inside
// the width, the sign-extended top replicated (unknown, since the sign is).
func typeTopKB(ty *llvm.Type) KnownBits {
	return TopKB().TruncTy(ty)
}

// kbDomain is the known-bits lattice. It has finite height (known bits
// only disappear along joins, 128 bits of state), so Widen joins.
type kbDomain struct{}

func (kbDomain) Top(ty *llvm.Type) KnownBits          { return typeTopKB(ty) }
func (kbDomain) Const(c int64) KnownBits              { return ConstKB(c) }
func (kbDomain) Join(a, b KnownBits) KnownBits        { return a.Join(b) }
func (kbDomain) Widen(prev, next KnownBits) KnownBits { return prev.Join(next) }
func (kbDomain) Equal(a, b KnownBits) bool            { return a.Equal(b) }

func (kbDomain) Decides(k KnownBits) (nonzero, ok bool) {
	v, ok := k.IsConst()
	return v != 0, ok
}

// Transfer computes one integer instruction's known bits under env. Every
// arithmetic result passes through TruncTy, mirroring the interpreter's
// truncInt: the fact always describes the sign-extended representation.
func (kbDomain) Transfer(env *absint.Env[KnownBits], in *llvm.Instr) KnownBits {
	arg := func(i int) KnownBits { return env.Get(in.Args[i]) }
	switch in.Op {
	case llvm.OpAdd:
		return arg(0).Add(arg(1)).TruncTy(in.Ty)
	case llvm.OpSub:
		return arg(0).Sub(arg(1)).TruncTy(in.Ty)
	case llvm.OpMul:
		return arg(0).Mul(arg(1)).TruncTy(in.Ty)
	case llvm.OpSDiv, llvm.OpSRem:
		a, aok := arg(0).IsConst()
		b, bok := arg(1).IsConst()
		if aok && bok && b != 0 {
			if in.Op == llvm.OpSDiv {
				return ConstKB(a / b).TruncTy(in.Ty)
			}
			return ConstKB(a % b).TruncTy(in.Ty)
		}
		return typeTopKB(in.Ty)
	case llvm.OpAnd:
		return arg(0).And(arg(1)).TruncTy(in.Ty)
	case llvm.OpOr:
		return arg(0).Or(arg(1)).TruncTy(in.Ty)
	case llvm.OpXor:
		return arg(0).Xor(arg(1)).TruncTy(in.Ty)
	case llvm.OpShl:
		return arg(0).Shl(arg(1), in.Ty)
	case llvm.OpLShr:
		return arg(0).LShr(arg(1), argTy(in, 0))
	case llvm.OpAShr:
		return arg(0).AShr(arg(1)).TruncTy(in.Ty)
	case llvm.OpZExt:
		return arg(0).ZExt(argTy(in, 0))
	case llvm.OpSExt:
		return arg(0).SExt()
	case llvm.OpTrunc:
		return arg(0).Trunc(in.Ty)
	case llvm.OpICmp:
		a, b := arg(0), arg(1)
		if v, decided := foldICmpKB(a, b, in.Pred); decided {
			return ConstKB(v)
		}
		return Bool()
	case llvm.OpSelect:
		c := arg(0)
		if v, ok := c.IsConst(); ok {
			if v != 0 {
				return arg(1)
			}
			return arg(2)
		}
		return arg(1).Join(arg(2))
	}
	// Loads, calls, ptrtoint, ...: only the type is known.
	return typeTopKB(in.Ty)
}

func argTy(in *llvm.Instr, i int) *llvm.Type {
	if i < len(in.Args) && in.Args[i] != nil {
		return in.Args[i].Type()
	}
	return nil
}

// foldICmpKB decides a comparison from known bits alone: exact when both
// sides are constants, and for eq/ne also when some known bit disagrees.
func foldICmpKB(a, b KnownBits, pred string) (int64, bool) {
	ca, aok := a.IsConst()
	cb, bok := b.IsConst()
	disagree := a.One&b.Zero != 0 || a.Zero&b.One != 0
	switch pred {
	case "eq":
		if aok && bok {
			return b2i(ca == cb), true
		}
		if disagree {
			return 0, true
		}
	case "ne":
		if aok && bok {
			return b2i(ca != cb), true
		}
		if disagree {
			return 1, true
		}
	default:
		if aok && bok {
			switch pred {
			case "slt":
				return b2i(ca < cb), true
			case "sle":
				return b2i(ca <= cb), true
			case "sgt":
				return b2i(ca > cb), true
			case "sge":
				return b2i(ca >= cb), true
			case "ult":
				return b2i(uint64(ca) < uint64(cb)), true
			case "ule":
				return b2i(uint64(ca) <= uint64(cb)), true
			case "ugt":
				return b2i(uint64(ca) > uint64(cb)), true
			case "uge":
				return b2i(uint64(ca) >= uint64(cb)), true
			}
		}
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Refine narrows known bits under "cmp is taken-true/false": the
// masked-compare patterns `(x & C) == K` and the single-bit `!=` forms
// give bitwise facts the interval domain cannot represent. Returns false
// when the refinement is contradictory (edge infeasible).
func (kbDomain) Refine(env *absint.Env[KnownBits], cmp *llvm.Instr, taken bool) bool {
	pred := cmp.Pred
	if !taken {
		pred = absint.NegatePred(pred)
	}
	a, b := cmp.Args[0], cmp.Args[1]
	switch pred {
	case "eq":
		// x == y: both sides meet; through `and x, C` the masked bits of x
		// become known.
		ka, kb := env.Get(a), env.Get(b)
		m, ok := ka.Meet(kb)
		if !ok {
			return false
		}
		if !setFact(env, a, m) || !setFact(env, b, m) {
			return false
		}
		if c, ok := kb.IsConst(); ok {
			return refineMaskedEq(env, a, c)
		}
		if c, ok := ka.IsConst(); ok {
			return refineMaskedEq(env, b, c)
		}
	case "ne":
		// Only the single-possible-bit forms are informative: (x & C) != 0
		// with C a power of two pins that bit to one; x != C with exactly one
		// unknown bit pins it to the other value.
		if c, ok := env.Get(b).IsConst(); ok {
			return refineNe(env, a, c)
		}
		if c, ok := env.Get(a).IsConst(); ok {
			return refineNe(env, b, c)
		}
	}
	return true
}

// refineMaskedEq pushes `v == c` through a mask: when v is `and x, C` with C
// constant, the bits C selects of x must equal the corresponding bits of c
// (and c must lie inside C, else the edge is infeasible).
func refineMaskedEq(env *absint.Env[KnownBits], v llvm.Value, c int64) bool {
	in, ok := v.(*llvm.Instr)
	if !ok || in.Op != llvm.OpAnd || len(in.Args) != 2 {
		return true
	}
	for i := 0; i < 2; i++ {
		mc, isConst := in.Args[i].(*llvm.ConstInt)
		if !isConst {
			continue
		}
		mask := uint64(mc.Val)
		if uint64(c)&^mask != 0 {
			return false // and with C can never produce bits outside C
		}
		x := in.Args[1-i]
		kx := env.Get(x)
		refined, ok := kx.Meet(KnownBits{Zero: mask &^ uint64(c), One: mask & uint64(c)})
		if !ok {
			return false
		}
		return setFact(env, x, refined)
	}
	return true
}

// refineNe handles `v != c` for the bit-exact cases: when all but one bit of
// v is known and the remaining bit's two completions include c, that bit
// must take the non-c value.
func refineNe(env *absint.Env[KnownBits], v llvm.Value, c int64) bool {
	kv := env.Get(v)
	unknown := ^(kv.Zero | kv.One)
	if unknown == 0 {
		if got, _ := kv.IsConst(); got == c {
			return false // v is exactly c: the edge is infeasible
		}
		return true
	}
	if unknown&(unknown-1) != 0 {
		return true // more than one unknown bit: nothing forced
	}
	// One unknown bit: the two completions are kv.One (bit zero) and
	// kv.One|unknown (bit one); excluding c forces the other.
	switch {
	case int64(kv.One) == c:
		kv.One |= unknown // the unknown bit must be one
	case int64(kv.One|unknown) == c:
		kv.Zero |= unknown // the unknown bit must be zero
	default:
		return true
	}
	return setFact(env, v, kv)
}

// setFact records a refined fact, or reports false when it is contradictory.
func setFact(env *absint.Env[KnownBits], v llvm.Value, kb KnownBits) bool {
	if kb.Zero&kb.One != 0 {
		return false
	}
	env.Set(v, kb)
	return true
}

// KnownBitsResult exposes one function's solved known-bits facts.
type KnownBitsResult struct {
	facts *absint.Facts[KnownBits]
}

// Known runs the known-bits analysis over the function of loops.
func Known(loops *analysis.LoopInfo) *KnownBitsResult {
	return &KnownBitsResult{facts: absint.Solve[KnownBits](loops, kbDomain{})}
}

// At returns v's fact at the program point of block b: the block's out-state
// for values defined in b, the (branch-refined) in-state otherwise.
func (r *KnownBitsResult) At(b *llvm.Block, v llvm.Value) KnownBits {
	if kb, ok := r.facts.At(b, v); ok {
		return kb
	}
	return typeTopKB(v.Type())
}

// Reached reports whether the analysis found b reachable.
func (r *KnownBitsResult) Reached(b *llvm.Block) bool { return r.facts.Reached(b) }
