package hls

import (
	"math"

	"repro/internal/deptest"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// baseOf resolves a pointer operand to its root allocation (parameter or
// alloca) by walking back through GEPs and casts.
func baseOf(v llvm.Value) llvm.Value {
	for {
		in, ok := v.(*llvm.Instr)
		if !ok {
			return v
		}
		switch in.Op {
		case llvm.OpGEP, llvm.OpBitcast, llvm.OpIntToPtr, llvm.OpPtrToInt:
			v = in.Args[0]
		default:
			return v
		}
	}
}

// schedule runs chaining-aware, memory-port-constrained list scheduling
// over the instructions of blocks in order (one block, or a loop iteration's
// blocks concatenated) and returns the schedule length in cycles and the
// port-implied minimum II: the maximum over bases of ceil(accesses/ports).
// Values defined outside the sequence are ready at time zero. copies > 1
// schedules the sequence that many times without its phis and terminators,
// as materialized unrolling presents the body: a copy reads its own earlier
// values, while port occupancy and memory ordering carry across copies.
// Every stage's delay and every chain packed into one cycle feed maxChain.
func (s *synth) schedule(blocks []int32, copies int) (cycles int64, resMII int) {
	s.call++
	s.bases = s.bases[:0]
	var maxFinish float64
	scheduled := 0
	for c := 0; c < copies; c++ {
		s.gen++
		for _, b := range blocks {
			for i := s.first[b]; i < s.first[b+1]; i++ {
				if !s.inCopy(i, copies) {
					continue
				}
				if end := s.place(i); end > maxFinish {
					maxFinish = end
				}
				scheduled++
			}
		}
	}
	cycles = int64(math.Ceil(maxFinish / s.tgt.ClockNs))
	if cycles == 0 && scheduled > 0 {
		cycles = 1
	}
	resMII = 1
	for _, b := range s.bases {
		resMII = maxInt(resMII, portMII(s.accesses[b], s.ports[b]))
	}
	return cycles, resMII
}

// portMII is the II that a base's accesses per iteration force when it
// serves ports accesses per cycle: ceil(accesses/ports).
func portMII(accesses, ports int) int { return (accesses + ports - 1) / ports }

// place schedules instruction i at the earliest time its operands, memory
// ordering and ports allow, and returns its finish time in ns.
func (s *synth) place(i int32) float64 {
	clk := s.tgt.ClockNs
	in := s.instrs[i]
	cost := s.cost[i]
	// Any single stage's delay bounds the achievable clock.
	if cost.Delay > s.maxChain {
		s.maxChain = cost.Delay
	}
	ready := 0.0
	for _, a := range s.operands(i) {
		if a >= 0 && s.stamp[a] == s.gen && s.finish[a] > ready {
			ready = s.finish[a]
		}
	}
	base := s.base[i]
	if base >= 0 && s.baseCall[base] != s.call {
		s.baseCall[base] = s.call
		s.lastStore[base], s.lastAccess[base] = 0, 0
		s.occupied[base] = s.occupied[base][:0]
		s.accesses[base] = 0
		s.bases = append(s.bases, base)
	}
	switch in.Op {
	case llvm.OpLoad:
		if f := s.lastStore[base]; f > ready {
			ready = f
		}
	case llvm.OpStore:
		if f := s.lastAccess[base]; f > ready {
			ready = f
		}
	}

	var end float64
	if cost.Latency == 0 {
		// Combinational: chain if the delay fits in the current cycle.
		start := ready
		cycleEnd := (math.Floor(start/clk) + 1) * clk
		if start+cost.Delay > cycleEnd {
			start = math.Ceil(start/clk) * clk
			if start == ready && start+cost.Delay > start+clk {
				// Single op longer than a cycle: takes one full cycle.
				cost.Delay = clk
			}
		}
		end = start + cost.Delay
		if chain := end - math.Floor(end/clk)*clk; chain > s.maxChain && chain <= clk {
			s.maxChain = chain
		}
	} else {
		// Sequential: starts at a cycle boundary, on a free port.
		startCycle := int64(math.Ceil(ready / clk))
		if base >= 0 {
			occ := s.occupied[base]
			for startCycle < int64(len(occ)) && occ[startCycle] >= int32(s.ports[base]) {
				startCycle++
			}
			if n := startCycle + 1 - int64(len(occ)); n > 0 {
				occ = append(occ, make([]int32, n)...)
			}
			occ[startCycle]++
			s.occupied[base] = occ
			s.accesses[base]++
		}
		end = float64(startCycle+int64(cost.Latency)) * clk
	}
	s.finish[i], s.stamp[i] = end, s.gen
	switch in.Op {
	case llvm.OpLoad:
		if end > s.lastAccess[base] {
			s.lastAccess[base] = end
		}
	case llvm.OpStore:
		if end > s.lastStore[base] {
			s.lastStore[base] = end
		}
		if end > s.lastAccess[base] {
			s.lastAccess[base] = end
		}
	}
	return end
}

// inCopy reports whether instruction i belongs to each copy of a body
// replicated copies times: materialized unrolling keeps no phis or
// terminators in the copies.
func (s *synth) inCopy(i int32, copies int) bool {
	in := s.instrs[i]
	return copies == 1 || in.Op != llvm.OpPhi && !in.IsTerminator()
}

// CarriedPair is a store→load pair of one loop whose store may reach the
// load in a later iteration: a recurrence that bounds the loop's pipeline
// II.
type CarriedPair struct {
	Ld, St *llvm.Instr
	// Dep is the dependence engine's verdict: Dependent, or Unknown for a
	// Structural pair.
	Dep deptest.CarriedDep
	// Structural marks a pair the engine could not decide whose addresses
	// are structurally the same and loop-invariant: a distance-1
	// recurrence.
	Structural bool
}

// carried classifies every store→load pair among mems at loop l and calls
// yield for each that carries a value across l's iterations. A pair
// mayAlias (may be nil) separates is skipped; the dependence engine eng
// decides the rest, and a pair it leaves Unknown falls back to the
// structural model: a load from a location stored at a loop-INVARIANT
// address (the classic accumulation recurrence C[i][j] += ... in a k-loop)
// is a distance-1 recurrence, while addresses varying with l's induction
// phis are assumed recurrence-free. With eng nil every pair goes to the
// structural model.
func carried(eng *deptest.Engine, l *analysis.Loop, mems []*llvm.Instr,
	mayAlias func(a, b llvm.Value) bool, yield func(CarriedPair)) {
	for _, ld := range mems {
		if ld.Op != llvm.OpLoad {
			continue
		}
		for _, st := range mems {
			if st.Op != llvm.OpStore || mayAlias != nil && !mayAlias(ld.Args[0], st.Args[1]) {
				continue
			}
			p := CarriedPair{Ld: ld, St: st}
			if eng != nil {
				p.Dep = eng.Carried(l, st, ld)
			}
			switch p.Dep.Res {
			case deptest.Independent:
				continue
			case deptest.Unknown:
				if !sameAddress(ld.Args[0], st.Args[1]) ||
					dependsOnHeaderPhi(ld.Args[0], l.Header, map[llvm.Value]bool{}) {
					continue
				}
				p.Structural = true
			}
			yield(p)
		}
	}
}

// recMII computes the recurrence-constrained minimum initiation interval of
// a loop iteration from the pairs carried finds among instrs: a recurrence
// of distance d whose load reaches the stored value through def-use edges
// bounds the II at ceil(latency/d) — the cycle closes every d iterations,
// so its latency amortizes over d initiations. lat prices an
// instruction's latency in cycles.
func recMII(eng *deptest.Engine, l *analysis.Loop, instrs []*llvm.Instr,
	mayAlias func(a, b llvm.Value) bool, lat func(*llvm.Instr) int) int {
	rec := 1
	carried(eng, l, instrs, mayAlias, func(p CarriedPair) {
		if depth, ok := pathLatency(p.Ld, p.St.Args[0], lat); ok {
			// The recurrence is load -> compute -> store -> (next load),
			// closed every dist iterations (the exact distance when the
			// engine pins one, else 1); +1 for the store write.
			dist := int64(1)
			if p.Dep.Exact {
				dist = p.Dep.Dist
			}
			rec = max(rec, int((int64(depth)+1+dist-1)/dist))
		}
	})
	return rec
}

// sameAddress reports whether two pointer operands are provably the same
// address: the same SSA value, or GEPs off the same base with identical
// index operands.
func sameAddress(a, b llvm.Value) bool {
	if a == b {
		return true
	}
	ga, ok1 := a.(*llvm.Instr)
	gb, ok2 := b.(*llvm.Instr)
	if !ok1 || !ok2 || ga.Op != llvm.OpGEP || gb.Op != llvm.OpGEP {
		return false
	}
	if ga.Args[0] != gb.Args[0] || len(ga.Args) != len(gb.Args) {
		return false
	}
	for i := 1; i < len(ga.Args); i++ {
		if !sameIndexValue(ga.Args[i], gb.Args[i], 8) {
			return false
		}
	}
	return true
}

// sameIndexValue compares two index computations structurally: identical
// SSA values, equal constants, or pure arithmetic trees of the same shape
// over the same leaves (both flows rematerialize the address chain per
// access, so pointer identity alone misses equal addresses).
func sameIndexValue(a, b llvm.Value, depth int) bool {
	if a == b {
		return true
	}
	if depth == 0 {
		return false
	}
	if ca, ok := a.(*llvm.ConstInt); ok {
		cb, ok := b.(*llvm.ConstInt)
		return ok && ca.Val == cb.Val
	}
	ia, ok1 := a.(*llvm.Instr)
	ib, ok2 := b.(*llvm.Instr)
	if !ok1 || !ok2 || ia.Op != ib.Op || len(ia.Args) != len(ib.Args) {
		return false
	}
	switch ia.Op {
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul, llvm.OpShl, llvm.OpAShr,
		llvm.OpAnd, llvm.OpOr, llvm.OpXor, llvm.OpZExt, llvm.OpSExt,
		llvm.OpTrunc, llvm.OpGEP:
	default:
		return false // non-pure ops: only pointer identity counts
	}
	for i := range ia.Args {
		if !sameIndexValue(ia.Args[i], ib.Args[i], depth-1) {
			return false
		}
	}
	return true
}

// pathLatency returns the cycle latency of the def-use path from src's
// result to dst (inclusive of src's own latency), with ok=false when dst
// does not depend on src. Phi operands are not traversed: a path through a
// phi crosses iterations and is not part of this same-iteration recurrence.
func pathLatency(src *llvm.Instr, dst llvm.Value, lat func(*llvm.Instr) int) (int, bool) {
	visiting := map[*llvm.Instr]bool{}
	var walk func(v llvm.Value) (int, bool)
	walk = func(v llvm.Value) (int, bool) {
		if v == src {
			return maxInt(lat(src), 1), true
		}
		din, ok := v.(*llvm.Instr)
		if !ok || din.Op == llvm.OpPhi || visiting[din] {
			return 0, false
		}
		visiting[din] = true
		best := -1
		for _, a := range din.Args {
			if d, ok := walk(a); ok && d > best {
				best = d
			}
		}
		visiting[din] = false
		if best < 0 {
			return 0, false
		}
		return best + lat(din), true
	}
	return walk(dst)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
