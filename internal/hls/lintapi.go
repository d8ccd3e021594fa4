package hls

import (
	"slices"

	"repro/internal/llvm"
)

// This file exports the estimator's II model and its dependence/address
// reasoning, so lint diagnostics and the DSE feasibility pre-check read
// what the scheduler computes instead of re-deriving it.

// LoopBound is what bounds the initiation interval of one innermost loop
// besides the request: its recurrence floor, and one iteration's
// sequential memory accesses per base. A pipeline's II is the largest of
// the request, RecMII and ResMII; partition directives change a base's
// ports but not its accesses, so one bound prices every partitioning.
type LoopBound struct {
	Header *llvm.Block
	// Pipelined marks a loop carrying hls.pipeline.
	Pipelined bool
	RecMII    int
	// ParamAccesses[i] counts parameter i's loads and stores.
	ParamAccesses []int
	// LocalAccesses is the busiest local buffer's count (allocas run at
	// the target's MemPorts).
	LocalAccesses int
}

// LoopBounds returns the bound of every innermost loop of f, in loop
// order, as synthesis computes it for a loop it pipelines: RecMII priced
// from the estimator's cost table (address folding and inferred widths
// applied) and the accesses its scheduler tallies.
func LoopBounds(f *llvm.Function, tgt Target) []LoopBound {
	if f.IsDecl || len(f.Blocks) == 0 {
		return nil
	}
	s := newSynth(f, tgt)
	defer s.release()
	param := make([]int, len(s.ports))
	for b := range param {
		param[b] = -1
	}
	for i, in := range s.instrs {
		if b := s.base[i]; b >= 0 && param[b] < 0 {
			ptr := in.Args[0]
			if in.Op == llvm.OpStore {
				ptr = in.Args[1]
			}
			v := baseOf(ptr)
			param[b] = slices.IndexFunc(f.Params, func(p *llvm.Param) bool { return v == llvm.Value(p) })
		}
	}
	var out []LoopBound
	for _, l := range s.li.Loops {
		if !l.IsInnermost() {
			continue
		}
		_, _, _, rec := s.iteration(l)
		lb := LoopBound{Header: l.Header, Pipelined: l.MD != nil && l.MD.Pipeline,
			RecMII: rec, ParamAccesses: make([]int, len(f.Params))}
		for _, b := range s.bases {
			if n := s.accesses[b]; param[b] >= 0 {
				lb.ParamAccesses[param[b]] = n
			} else {
				lb.LocalAccesses = maxInt(lb.LocalAccesses, n)
			}
		}
		out = append(out, lb)
	}
	return out
}

// ResMII returns the loop's port floor when every parameter is partitioned
// by kind and factor (kind "" for none): the largest ceil(accesses/ports)
// over its bases, as the scheduler prices it.
func (lb LoopBound) ResMII(tgt Target, kind string, factor int) int {
	ports := tgt.PartitionPorts(kind, factor)
	m := maxInt(1, portMII(lb.LocalAccesses, tgt.MemPorts))
	for _, n := range lb.ParamAccesses {
		m = maxInt(m, portMII(n, ports))
	}
	return m
}

// RecMII computes the recurrence-constrained minimum initiation interval of
// one loop iteration's instruction sequence with the structural model alone,
// priced with CostOf. ivDependent (may be nil) reports whether a value
// varies with the loop's induction variable; loads at IV-dependent
// addresses touch a different location each iteration and do not constrain
// the II. mayAlias (may be nil) is a points-to oracle used to discard
// load/store pairs that provably address disjoint memory. It is the
// reference the distance-aware bound of LoopBounds must never fall below.
func (t Target) RecMII(instrs []*llvm.Instr, ivDependent func(llvm.Value) bool,
	mayAlias func(a, b llvm.Value) bool) int {
	return recMII(nil, nil, instrs, ivDependent, mayAlias, t.latency)
}

// latency prices an instruction's latency in cycles with CostOf.
func (t Target) latency(in *llvm.Instr) int { return t.CostOf(in).Latency }

// PartitionPorts returns the effective port count of an array partitioned
// by kind and factor, as in an hls.array_partition.argN directive: complete
// partitioning leaves registers with effectively unlimited ports, cyclic and
// block partitioning by a factor above one multiply the dual ports, and
// anything else keeps MemPorts. The synthesis estimator and the DSE
// feasibility pre-check both price partition directives with it.
func (t Target) PartitionPorts(kind string, factor int) int {
	switch kind {
	case "complete":
		return 1 << 20
	case "cyclic", "block":
		if factor > 1 {
			return t.MemPorts * factor
		}
	}
	return t.MemPorts
}

// SameAddress reports whether two pointer operands are provably the same
// address: the same SSA value, or GEPs off the same base with structurally
// identical index computations.
func SameAddress(a, b llvm.Value) bool { return sameAddress(a, b) }

// BaseOf resolves a pointer operand to its root allocation (parameter or
// alloca) by walking back through GEPs and casts.
func BaseOf(v llvm.Value) llvm.Value { return baseOf(v) }

// DependsOnLoopPhi reports whether v's computation reads any phi of the
// given loop header, i.e. whether v varies across that loop's iterations.
func DependsOnLoopPhi(v llvm.Value, header *llvm.Block) bool {
	return dependsOnHeaderPhi(v, header, map[llvm.Value]bool{})
}
