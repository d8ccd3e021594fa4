package bitwidth

import (
	"repro/internal/absint"
	"repro/internal/llvm"
)

// kenv maps integer-typed SSA values to known-bits facts. Missing values are
// implicitly the top of their type (only the sign-extension replication of
// the type width is known). Environments are treated immutably by the
// solver: every producing operation clones.
type kenv struct {
	m map[llvm.Value]KnownBits
}

func newKEnv() *kenv { return &kenv{m: map[llvm.Value]KnownBits{}} }

func (e *kenv) clone() *kenv {
	n := &kenv{m: make(map[llvm.Value]KnownBits, len(e.m))}
	for k, v := range e.m {
		n.m[k] = v
	}
	return n
}

// typeTopKB is the baseline fact of an integer type: nothing known inside
// the width, the sign-extended top replicated (unknown, since the sign is).
func typeTopKB(ty *llvm.Type) KnownBits {
	return TopKB().TruncTy(ty)
}

func (e *kenv) get(v llvm.Value) KnownBits {
	if c, ok := v.(*llvm.ConstInt); ok {
		return ConstKB(c.Val)
	}
	if kb, ok := e.m[v]; ok {
		return kb
	}
	return typeTopKB(v.Type())
}

// kbDomain is the known-bits client of the generic solver. The lattice has
// finite height (known bits only disappear along joins, 128 bits of state),
// so Widen can simply join.
type kbDomain struct{}

func (kbDomain) Entry(f *llvm.Function) *kenv { return newKEnv() }

func (kbDomain) Join(a, b *kenv) *kenv {
	out := a.clone()
	for k, vb := range b.m {
		if va, ok := out.m[k]; ok {
			out.m[k] = va.Join(vb)
		} else {
			// Present on one path only: any dominated use sees exactly that
			// path's value (SSA), so keeping it loses nothing.
			out.m[k] = vb
		}
	}
	return out
}

func (d kbDomain) Widen(at *llvm.Block, prev, next *kenv) *kenv {
	return d.Join(prev, next)
}

func (kbDomain) Equal(a, b *kenv) bool {
	if len(a.m) != len(b.m) {
		return false
	}
	for k, va := range a.m {
		vb, ok := b.m[k]
		if !ok || !va.Equal(vb) {
			return false
		}
	}
	return true
}

func (kbDomain) Transfer(b *llvm.Block, in *kenv) *kenv {
	out := in.clone()
	for _, ins := range b.Instrs {
		if ins.Op == llvm.OpPhi {
			continue // bound per-edge by FlowEdge; the joined in-state holds it
		}
		if ins.Ty == nil || !ins.Ty.IsInt() {
			continue
		}
		out.m[ins] = evalKB(out, ins)
	}
	return out
}

// evalKB computes one integer instruction's known bits under env. Every
// arithmetic result passes through TruncTy, mirroring the interpreter's
// truncInt: the fact always describes the sign-extended representation.
func evalKB(env *kenv, in *llvm.Instr) KnownBits {
	arg := func(i int) KnownBits { return env.get(in.Args[i]) }
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

// FlowEdge refines the out-state along a conditional branch edge — the
// masked-compare patterns `(x & C) == K` and the single-bit `!=` forms give
// bitwise facts the interval domain cannot represent — and binds the target
// block's phis to this edge's incoming values.
func (d kbDomain) FlowEdge(from, to *llvm.Block, out *kenv) (*kenv, bool) {
	env := out.clone()
	term := from.Terminator()
	if term != nil && term.Op == llvm.OpCondBr && len(term.Blocks) == 2 && term.Blocks[0] != term.Blocks[1] {
		takenTrue := term.Blocks[0] == to
		cond := env.get(term.Args[0])
		if v, ok := cond.IsConst(); ok && (v != 0) != takenTrue {
			return nil, false // branch provably goes the other way
		}
		if cmp, ok := term.Args[0].(*llvm.Instr); ok && cmp.Op == llvm.OpICmp {
			if !refineICmpKB(env, cmp, takenTrue) {
				return nil, false
			}
		}
	}
	for _, ins := range to.Instrs {
		if ins.Op != llvm.OpPhi {
			break
		}
		if ins.Ty == nil || !ins.Ty.IsInt() {
			continue
		}
		for i, blk := range ins.Blocks {
			if blk == from && i < len(ins.Args) {
				env.m[ins] = env.get(ins.Args[i])
			}
		}
	}
	return env, true
}

// refineICmpKB narrows known bits under "cmp is taken-true/false". Returns
// false when the refinement is contradictory (edge infeasible).
func refineICmpKB(env *kenv, cmp *llvm.Instr, taken bool) bool {
	pred := cmp.Pred
	if !taken {
		pred = absint.NegatePred(pred)
	}
	a, b := cmp.Args[0], cmp.Args[1]
	switch pred {
	case "eq":
		// x == y: both sides meet; through `and x, C` the masked bits of x
		// become known.
		ka, kb := env.get(a), env.get(b)
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
		if c, ok := env.get(b).IsConst(); ok {
			return refineNe(env, a, c)
		}
		if c, ok := env.get(a).IsConst(); ok {
			return refineNe(env, b, c)
		}
	}
	return true
}

// refineMaskedEq pushes `v == c` through a mask: when v is `and x, C` with C
// constant, the bits C selects of x must equal the corresponding bits of c
// (and c must lie inside C, else the edge is infeasible).
func refineMaskedEq(env *kenv, v llvm.Value, c int64) bool {
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
		kx := env.get(x)
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
func refineNe(env *kenv, v llvm.Value, c int64) bool {
	kv := env.get(v)
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

// setFact records a refined fact for a non-constant value.
func setFact(env *kenv, v llvm.Value, kb KnownBits) bool {
	if kb.Zero&kb.One != 0 {
		return false
	}
	if _, isConst := v.(*llvm.ConstInt); !isConst {
		env.m[v] = kb
	}
	return true
}

// KnownBitsResult exposes one function's solved known-bits facts.
type KnownBitsResult struct {
	res *absint.Result[*kenv]
}

// Known runs the known-bits analysis over f.
func Known(f *llvm.Function) *KnownBitsResult {
	return &KnownBitsResult{res: absint.Solve[*kenv](f, kbDomain{})}
}

// At returns v's fact at the program point of block b: the block's out-state
// for values defined in b, the (branch-refined) in-state otherwise.
func (r *KnownBitsResult) At(b *llvm.Block, v llvm.Value) KnownBits {
	if !r.res.Reached(b) {
		return typeTopKB(v.Type())
	}
	env := r.res.In[b]
	if in, ok := v.(*llvm.Instr); ok && in.Parent == b {
		env = r.res.Out[b]
	}
	if env == nil {
		return typeTopKB(v.Type())
	}
	return env.get(v)
}

// Reached reports whether the analysis found b reachable.
func (r *KnownBitsResult) Reached(b *llvm.Block) bool { return r.res.Reached(b) }
