package hls

import (
	"strconv"
	"strings"

	"repro/internal/deptest"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// This file exports the scheduler's dependence/address reasoning for the
// static-analysis layer (internal/lint), so lint diagnostics and the DSE
// feasibility pre-check agree with the estimator instead of re-deriving a
// divergent model.

// RecMII computes the recurrence-constrained minimum initiation interval of
// one loop iteration's instruction sequence. ivDependent (may be nil)
// reports whether a value varies with the loop's induction variable; loads
// at IV-dependent addresses touch a different location each iteration and do
// not constrain the II. mayAlias (may be nil) is a points-to oracle used to
// discard load/store pairs that provably address disjoint memory.
func (t Target) RecMII(instrs []*llvm.Instr, ivDependent func(llvm.Value) bool,
	mayAlias func(a, b llvm.Value) bool) int {
	return recMII(nil, nil, instrs, ivDependent, mayAlias, t.latency)
}

// RecMIIWith is RecMII with an affine dependence engine: eng's exact
// distance/direction verdicts for loop l replace the structural
// same-address heuristic wherever both accesses are affine — a distance-d
// recurrence bounds the II at ceil(latency/d), and provably independent
// pairs constrain nothing. Pairs the engine cannot decide fall back to the
// structural model, so the result is never looser than RecMII.
func (t Target) RecMIIWith(eng *deptest.Engine, l *analysis.Loop,
	instrs []*llvm.Instr, ivDependent func(llvm.Value) bool,
	mayAlias func(a, b llvm.Value) bool) int {
	return recMII(eng, l, instrs, ivDependent, mayAlias, t.latency)
}

// latency prices an instruction's latency in cycles with CostOf.
func (t Target) latency(in *llvm.Instr) int { return t.CostOf(in).Latency }

// MemAccessCounts returns the per-base load/store counts of one iteration's
// instruction sequence, exactly as the port-constrained scheduler tallies
// them: every sequential (non-zero latency) access. Access counts are
// independent of port widths and partitioning.
func (t Target) MemAccessCounts(instrs []*llvm.Instr) map[llvm.Value]int {
	counts := map[llvm.Value]int{}
	for _, in := range instrs {
		var base llvm.Value
		switch in.Op {
		case llvm.OpLoad:
			base = baseOf(in.Args[0])
		case llvm.OpStore:
			base = baseOf(in.Args[1])
		default:
			continue
		}
		if t.CostOf(in).Latency != 0 {
			counts[base]++
		}
	}
	return counts
}

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

// ParsePartitionSpec decodes an array-partition attribute value of the form
// "kind,factor,dim" (e.g. "cyclic,2,0"; factor and dim optional) as attached
// by the adaptor under hls.array_partition.argN keys.
func ParsePartitionSpec(spec string) (kind string, factor, dim int) {
	kind, factor = parsePartition(spec)
	if parts := strings.Split(spec, ","); len(parts) > 2 {
		dim, _ = strconv.Atoi(parts[2])
	}
	return kind, factor, dim
}
