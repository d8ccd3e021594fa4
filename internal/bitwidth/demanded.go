package bitwidth

import (
	"math/bits"

	"repro/internal/llvm"
)

// Demanded-bits: a backward pass over the SSA use-def graph computing, for
// every integer-valued instruction, the mask of representation bits some
// consumer can observe. Effectful sinks (stores, branches, addresses, calls,
// returns, comparisons) demand everything their operand's type carries; pure
// dataflow ops propagate the demand of their own result into their operands
// per opcode. Bits never demanded can be pruned from the datapath — that is
// a hardware-width fact, not a value fact: a value may dynamically exceed
// its demanded width, so only the cost model (never the soundness gate)
// consumes these masks.

// demandAll is the demand a sink places on an operand.
const demandAll = ^uint64(0)

// demanded holds the demanded-bits mask of every instruction of one
// function, by the number Function.Renumber gave it. Only integer results
// are tracked; every other instruction's mask stays zero.
type demanded struct {
	instrs []*llvm.Instr
	mask   []uint64
}

// demandedBits computes the demanded mask of every integer-typed
// instruction of f, whose numbering must be current (the CFG the analyses
// are handed renumbered it). A worklist propagates each instruction's
// demand into its operands and queues an operand again when its mask
// grows. Masks only grow (bitwise or) in a finite lattice and every
// operand demand is monotone in the result's, so this reaches the least
// fixpoint sweeping the function until nothing changes would.
func demandedBits(f *llvm.Function) demanded {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	d := demanded{instrs: make([]*llvm.Instr, 0, n), mask: make([]uint64, n)}
	for _, b := range f.Blocks {
		d.instrs = append(d.instrs, b.Instrs...)
	}
	// Every instruction starts on the worklist, since a sink demands its
	// operands whatever its own demand is. An instruction is queued again
	// each time its mask grows, at most once per bit.
	work := make([]int32, n)
	for i := range work {
		work[i] = int32(n - 1 - i)
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		in := d.instrs[i]
		for k, a := range in.Args {
			op, ok := a.(*llvm.Instr)
			if !ok || op.Ty == nil || !op.Ty.IsInt() {
				continue
			}
			j := d.num(op)
			if j < 0 {
				continue
			}
			if dm := operandDemand(in, k, d.mask[i]); dm&^d.mask[j] != 0 {
				d.mask[j] |= dm
				work = append(work, j)
			}
		}
	}
	return d
}

// num returns in's number, or -1 when in is no instruction of the function.
func (d demanded) num(in *llvm.Instr) int32 {
	if i := in.ID; i >= 0 && int(i) < len(d.instrs) && d.instrs[i] == in {
		return i
	}
	return -1
}

// of returns in's demanded mask, and whether in is a tracked integer
// result of the function.
func (d demanded) of(in *llvm.Instr) (uint64, bool) {
	i := d.num(in)
	if i < 0 || !in.HasResult() || in.Ty == nil || !in.Ty.IsInt() {
		return 0, false
	}
	return d.mask[i], true
}

// operandDemand returns the demand instruction `in` places on its i-th
// operand, given the demand dRes on in's own result.
func operandDemand(in *llvm.Instr, i int, dRes uint64) uint64 {
	switch in.Op {
	case llvm.OpAnd:
		// Bits the constant mask clears are never observed through the and.
		if c, ok := otherConst(in, i); ok {
			return dRes & uint64(c)
		}
		return dRes
	case llvm.OpOr:
		// Bits the constant mask sets are produced by the mask, not the
		// operand.
		if c, ok := otherConst(in, i); ok {
			return dRes &^ uint64(c)
		}
		return dRes
	case llvm.OpXor:
		return dRes
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul:
		// Carries only travel upward: operand bits at or below the highest
		// demanded result bit can matter, higher ones cannot.
		return lowDemand(dRes)
	case llvm.OpShl:
		if i == 0 {
			if s, ok := constArg(in, 1); ok && s >= 0 && s < 64 {
				return dRes >> uint(s)
			}
			return demandAll
		}
		return demandAll // the shift amount always matters in full
	case llvm.OpLShr:
		if i == 0 {
			if s, ok := constArg(in, 1); ok && s >= 0 && s < 64 {
				return typeMask(argTy(in, 0)) & (dRes << uint(s))
			}
			return demandAll
		}
		return demandAll
	case llvm.OpAShr:
		if i == 0 {
			if s, ok := constArg(in, 1); ok && s >= 0 && s < 64 {
				d := dRes << uint(s)
				if dRes&^(^uint64(0)>>uint(s)) != 0 {
					// Demanded result bits shifted out the top came from the
					// operand's sign: demand it.
					d |= signBitOf(argTy(in, 0))
				}
				return d
			}
			return demandAll
		}
		return demandAll
	case llvm.OpTrunc:
		// High result bits are replicas of the new sign bit; demand on them
		// is demand on that bit of the operand.
		n := intBits(in.Ty)
		d := dRes & lowMask(n)
		if dRes&^lowMask(n) != 0 {
			d |= uint64(1) << uint(n-1)
		}
		return d
	case llvm.OpZExt:
		return dRes & lowMask(intBits(argTy(in, 0)))
	case llvm.OpSExt:
		n := intBits(argTy(in, 0))
		d := dRes & lowMask(n)
		if dRes&^lowMask(n) != 0 {
			d |= uint64(1) << uint(n-1)
		}
		return d
	case llvm.OpSelect:
		if i == 0 {
			return demandAll // the condition is consumed whole (one bit wide)
		}
		return dRes
	case llvm.OpPhi:
		return dRes
	}
	// Sinks and opaque consumers: stores, branches, returns, calls,
	// comparisons, divisions, GEP indices, addresses.
	return demandAll
}

// lowDemand widens a demand mask downward: every bit at or below the
// highest demanded bit is demanded (carry/ripple propagation).
func lowDemand(d uint64) uint64 {
	if d == 0 {
		return 0
	}
	top := 63 - bits.LeadingZeros64(d)
	if top >= 63 {
		return demandAll
	}
	return uint64(1)<<uint(top+1) - 1
}

func otherConst(in *llvm.Instr, i int) (int64, bool) {
	if len(in.Args) != 2 {
		return 0, false
	}
	return constArg(in, 1-i)
}

func constArg(in *llvm.Instr, i int) (int64, bool) {
	if i >= len(in.Args) {
		return 0, false
	}
	c, ok := in.Args[i].(*llvm.ConstInt)
	if !ok {
		return 0, false
	}
	return c.Val, true
}

// intBits returns the width of an integer type, 64 for anything else.
func intBits(ty *llvm.Type) int {
	if ty != nil && ty.IsInt() && ty.Bits > 0 && ty.Bits <= 64 {
		return ty.Bits
	}
	return 64
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

func typeMask(ty *llvm.Type) uint64 { return lowMask(intBits(ty)) }

func signBitOf(ty *llvm.Type) uint64 { return uint64(1) << uint(intBits(ty)-1) }
