package hls

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bitwidth"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// LoopReport describes one synthesized loop.
type LoopReport struct {
	Header        string
	Depth         int
	Trip          int64
	TripEstimated bool
	Pipelined     bool
	// Flattened marks a nest level merged into its inner pipeline
	// (loop_flatten): the inner II continues across outer iterations.
	Flattened   bool
	II          int
	IterLatency int64
	Latency     int64
}

// Report is the synthesis result for one top function.
type Report struct {
	Top     string
	ClockNs float64

	LatencyCycles int64
	Loops         []LoopReport

	// CriticalPathNs is the longest combinational chain packed into a
	// cycle; EstimatedFmaxMHz derives from it.
	CriticalPathNs float64

	LUT  int
	FF   int
	DSP  int
	BRAM int
}

// EstimatedFmaxMHz returns the achievable clock implied by the critical
// path (capped at the target clock).
func (r *Report) EstimatedFmaxMHz() float64 {
	cp := r.CriticalPathNs
	if cp < r.ClockNs {
		cp = r.ClockNs // timing met: report the target
	}
	return 1000 / cp
}

// String renders the report like a synthesis log summary.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Synthesis report: %s (clock %.1f ns) ==\n", r.Top, r.ClockNs)
	fmt.Fprintf(&sb, "Latency: %d cycles\n", r.LatencyCycles)
	fmt.Fprintf(&sb, "Timing: critical path %.2f ns, est. Fmax %.1f MHz\n",
		r.CriticalPathNs, r.EstimatedFmaxMHz())
	fmt.Fprintf(&sb, "Resources: LUT=%d FF=%d DSP=%d BRAM=%d\n", r.LUT, r.FF, r.DSP, r.BRAM)
	for _, l := range r.Loops {
		pipe := "no"
		if l.Pipelined {
			pipe = fmt.Sprintf("yes II=%d", l.II)
		}
		if l.Flattened {
			pipe = fmt.Sprintf("flattened II=%d", l.II)
		}
		est := ""
		if l.TripEstimated {
			est = " (est)"
		}
		fmt.Fprintf(&sb, "  loop %-10s depth=%d trip=%d%s iterLat=%d pipeline=%s latency=%d\n",
			l.Header, l.Depth, l.Trip, est, l.IterLatency, pipe, l.Latency)
	}
	return sb.String()
}

// UnreadableError is returned when the module fails the HLS frontend gate.
type UnreadableError struct {
	Violations []Violation
}

// Error implements the error interface.
func (e *UnreadableError) Error() string {
	var parts []string
	for _, v := range e.Violations {
		parts = append(parts, v.String())
	}
	return fmt.Sprintf("HLS frontend rejected the IR (%d violations):\n  %s",
		len(e.Violations), strings.Join(parts, "\n  "))
}

// Synthesize runs the legality gate and the synthesis estimator on the named
// top function.
func Synthesize(m *llvm.Module, top string, tgt Target) (*Report, error) {
	if vs := Check(m); len(vs) > 0 {
		return nil, &UnreadableError{Violations: vs}
	}
	f := m.FindFunc(top)
	if f == nil {
		return nil, fmt.Errorf("hls: top function @%s not found", top)
	}
	s := newSynth(Analyze(f), tgt)
	rep := s.run()
	s.release()
	return rep, nil
}

// synth is one synthesis run. newSynth numbers the function's blocks and
// instructions once, and every later step works on dense tables indexed by
// those numbers.
type synth struct {
	tgt Target
	*Analyses

	// Blocks and instructions carry the layout numbers the CFG had F
	// write: block b holds instructions first[b] through first[b+1]-1.
	first []int32
	*synthTables
	// part holds each parameter's partition directive; ports is each base's
	// effective port count.
	part  []llvm.Partition
	ports []int

	// Per loop, numbered in Loops.Loops order.
	loopLat []int64
	loopRep []LoopReport
	reports []LoopReport

	// Scheduler state: finish times (in synthTables) valid when stamped
	// with the current generation, and per-base memory state valid when
	// stamped with the current call.
	gen, call  uint32
	baseCall   []uint32
	lastStore  []float64
	lastAccess []float64
	occupied   [][]int32 // port uses per base per cycle
	accesses   []int
	bases      []int32 // bases touched by the current call

	// Longest-path state over node numbers (a block number, or the block
	// count plus a loop number), valid when stamped with the current pass.
	pass     uint32
	memoPass []uint32
	memo     []int64
	visiting []bool
	exits    []int32

	// Area accumulation per interned key, valid when stamped with the
	// current call.
	areaCall  []uint32
	areaCount []int
	areaCost  []OpCost
	kinds     []int32 // keys touched by the current call

	body []int32
	mems []*llvm.Instr

	lut, ff, dsp int

	// maxChain tracks the longest single-cycle combinational chain seen.
	maxChain float64
}

// synthTables is a synthesis run's per-instruction scratch, taken from
// synthScratch by newSynth and returned by Synthesize once the report is
// built. instrs[i] is instruction i. Per instruction: its cost with
// address folding and inferred widths applied, its operands' numbers (-1
// for anything but an instruction of f) in args[argOff[i]:argOff[i+1]],
// its load/store base number (-1 otherwise), its interned area key (-1
// when it has no area), and the scheduler's finish time, valid when
// stamped with the current generation.
type synthTables struct {
	instrs []*llvm.Instr
	cost   []OpCost
	argOff []int32
	args   []int32
	base   []int32
	area   []int32
	stamp  []uint32
	finish []float64
}

// synthScratch holds the tables of finished synthesis runs.
var synthScratch sync.Pool

// takeSynthTables returns tables for n instructions with nargs operands in
// all. Every table but stamp is written before it is read; stamp starts
// at generation zero, which no schedule uses.
func takeSynthTables(n, nargs int) *synthTables {
	t, _ := synthScratch.Get().(*synthTables)
	if t == nil {
		t = &synthTables{}
	}
	t.instrs = slices.Grow(t.instrs[:0], n)
	t.args = slices.Grow(t.args[:0], nargs)
	t.cost = slices.Grow(t.cost[:0], n)[:n]
	t.argOff = slices.Grow(t.argOff[:0], n+1)[:n+1]
	t.base = slices.Grow(t.base[:0], n)[:n]
	t.area = slices.Grow(t.area[:0], n)[:n]
	t.stamp = slices.Grow(t.stamp[:0], n)[:n]
	t.finish = slices.Grow(t.finish[:0], n)[:n]
	clear(t.stamp)
	return t
}

// release empties the tables of the instructions they reference and pools
// them. The synth must not be used afterwards.
func (s *synth) release() {
	t := s.synthTables
	s.synthTables = nil
	clear(t.instrs)
	t.instrs = t.instrs[:0]
	synthScratch.Put(t)
}

// areaKey groups operators that share one datapath unit kind: calls by
// callee, everything else by opcode and double precision.
type areaKey struct {
	op     llvm.Opcode
	callee string
	double bool
}

// newSynth prepares a synthesis of a's function under tgt. It reads the
// set's CFG and loops, its points-to relation and dependence engine for
// the first pipelined loop, and under CostInferred its widths.
func newSynth(a *Analyses, tgt Target) *synth {
	s := &synth{tgt: tgt, Analyses: a}
	f := a.F

	n, nargs := 0, 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
		for _, in := range b.Instrs {
			nargs += len(in.Args)
		}
	}
	nb := len(f.Blocks)
	s.synthTables = takeSynthTables(n, nargs)
	s.first = make([]int32, nb+1)
	for bi, b := range f.Blocks {
		s.first[bi] = int32(len(s.instrs))
		s.instrs = append(s.instrs, b.Instrs...)
	}
	s.first[nb] = int32(n)
	for i, in := range s.instrs {
		s.argOff[i] = int32(len(s.args))
		for _, a := range in.Args {
			j := int32(-1)
			if ai, ok := a.(*llvm.Instr); ok {
				j = s.instrNum(ai)
			}
			s.args = append(s.args, j)
		}
	}
	s.argOff[n] = int32(len(s.args))

	s.part = make([]llvm.Partition, len(f.Params))
	for i := range f.Params {
		s.part[i], _ = f.Partition(i)
	}
	s.price()

	nl := len(s.Loops.Loops)
	s.loopLat = make([]int64, nl)
	s.loopRep = make([]LoopReport, nl)
	if nl > 0 {
		s.reports = make([]LoopReport, 0, nl)
	}
	s.memoPass = make([]uint32, nb+nl)
	s.memo = make([]int64, nb+nl)
	s.visiting = make([]bool, nb+nl)
	return s
}

// price fills the per-instruction cost, base and area-key tables and the
// per-base port counts. Under the inferred cost model it prices each
// operator at the width the set's bitwidth analysis proves.
func (s *synth) price() {
	addrOnly := s.addrOnly()
	bases := map[llvm.Value]int32{}
	baseNum := func(v llvm.Value) int32 {
		v = baseOf(v)
		if b, ok := bases[v]; ok {
			return b
		}
		b := int32(len(s.ports))
		bases[v] = b
		ports := s.tgt.MemPorts
		for i, p := range s.F.Params {
			if v == llvm.Value(p) {
				ports = s.tgt.PartitionPorts(s.part[i].Kind, s.part[i].Factor)
			}
		}
		s.ports = append(s.ports, ports)
		return b
	}
	var widths *bitwidth.Analysis
	if s.tgt.CostModel == CostInferred {
		widths = s.Bitwidth()
	}
	areaKeys := map[areaKey]int32{}
	for i, in := range s.instrs {
		w := 0
		if widths != nil && narrowable(in) {
			w = widths.OpWidth(in)
		}
		c := s.tgt.costOf(in, addrOnly[i], w)
		s.cost[i] = c
		switch in.Op {
		case llvm.OpLoad:
			s.base[i] = baseNum(in.Args[0])
		case llvm.OpStore:
			s.base[i] = baseNum(in.Args[1])
		default:
			s.base[i] = -1
		}
		s.area[i] = -1
		if c.DSP == 0 && c.LUT == 0 && c.FF == 0 {
			continue
		}
		k := areaKey{op: in.Op}
		if in.Op == llvm.OpCall {
			k.callee = in.Callee
		} else {
			k.double = in.Ty != nil && in.Ty.Kind == llvm.KindDouble
		}
		a, ok := areaKeys[k]
		if !ok {
			a = int32(len(areaKeys))
			areaKeys[k] = a
		}
		s.area[i] = a
	}
	nb := len(s.ports)
	s.baseCall = make([]uint32, nb)
	s.lastStore = make([]float64, nb)
	s.lastAccess = make([]float64, nb)
	s.occupied = make([][]int32, nb)
	s.accesses = make([]int, nb)
	na := len(areaKeys)
	s.areaCall = make([]uint32, na)
	s.areaCount = make([]int, na)
	s.areaCost = make([]OpCost, na)
}

// instrNum returns in's number, or -1 when f does not hold it.
func (s *synth) instrNum(in *llvm.Instr) int32 {
	if i := in.ID; i >= 0 && int(i) < len(s.instrs) && s.instrs[i] == in {
		return i
	}
	return -1
}

// blockNum returns b's number, or 0 for a block F does not hold (a branch
// target outside F, which the verifier rejects).
func (s *synth) blockNum(b *llvm.Block) int32 { return int32(s.BlockPos(b)) }

// operands returns the numbers of instruction i's operands.
func (s *synth) operands(i int32) []int32 { return s.args[s.argOff[i]:s.argOff[i+1]] }

// latency is an instruction's pipeline depth from the cost table.
func (s *synth) latency(in *llvm.Instr) int {
	if i := s.instrNum(in); i >= 0 {
		return s.cost[i].Latency
	}
	return s.tgt.CostOf(in).Latency
}

func (s *synth) run() *Report {
	// Synthesize loops innermost-first.
	ordered := make([]int32, len(s.Loops.Loops))
	for i := range ordered {
		ordered[i] = int32(i)
	}
	slices.SortStableFunc(ordered, func(a, b int32) int {
		return s.Loops.Loops[b].Depth() - s.Loops.Loops[a].Depth()
	})
	for _, l := range ordered {
		s.synthLoop(l)
	}

	latency := s.longestPath(-1, s.F.Entry())
	if s.F.Attrs["hls.dataflow"] != "" {
		if dfLat, ok := s.dataflowLatency(latency); ok {
			latency = dfLat
		}
	}
	rep := &Report{
		Top:            s.F.Name,
		ClockNs:        s.tgt.ClockNs,
		CriticalPathNs: s.maxChain,
		LatencyCycles:  latency,
		Loops:          s.reports,
		LUT:            s.lut,
		FF:             s.ff,
		DSP:            s.dsp,
	}
	s.estimateMemories(rep)
	s.estimateControl(rep)
	slices.SortStableFunc(rep.Loops, func(a, b LoopReport) int { return strings.Compare(a.Header, b.Header) })
	return rep
}

// dataflowLatency models #pragma HLS dataflow: when every pair of top-level
// loops is independent (no array written by one is touched by another), the
// loops run as concurrent tasks and the function latency becomes the
// non-loop overhead plus the slowest task. Returns ok=false when the
// directive is not legal (dependent tasks), matching the tool behavior of
// silently keeping the sequential schedule.
func (s *synth) dataflowLatency(seqLatency int64) (int64, bool) {
	var tops []int32
	for i, l := range s.Loops.Loops {
		if l.Parent == nil {
			tops = append(tops, int32(i))
		}
	}
	if len(tops) < 2 {
		return 0, false
	}
	type access struct{ reads, writes map[llvm.Value]bool }
	accOf := func(l *analysis.Loop) access {
		a := access{reads: map[llvm.Value]bool{}, writes: map[llvm.Value]bool{}}
		for _, b := range l.Blocks() {
			for _, in := range b.Instrs {
				switch in.Op {
				case llvm.OpLoad:
					a.reads[baseOf(in.Args[0])] = true
				case llvm.OpStore:
					a.writes[baseOf(in.Args[1])] = true
				}
			}
		}
		return a
	}
	accs := make([]access, len(tops))
	for i, l := range tops {
		accs[i] = accOf(s.Loops.Loops[l])
	}
	for i := range tops {
		for j := range tops {
			if i == j {
				continue
			}
			for w := range accs[i].writes {
				if accs[j].reads[w] || accs[j].writes[w] {
					return 0, false // dependent tasks: keep sequential
				}
			}
		}
	}
	var sum, slowest int64
	for _, l := range tops {
		sum += s.loopLat[l]
		if s.loopLat[l] > slowest {
			slowest = s.loopLat[l]
		}
	}
	overhead := seqLatency - sum
	if overhead < 0 {
		overhead = 0
	}
	return overhead + slowest, true
}

// tripOf estimates a loop's trip count.
func (s *synth) tripOf(l *analysis.Loop) (int64, bool) {
	if tc, ok := analysis.TripCount(l); ok {
		return tc, false
	}
	// IV-dependent bound (triangular loop): average half the constant bound
	// if one exists anywhere in the compare.
	for _, in := range l.Header.Instrs {
		if in.Op == llvm.OpICmp {
			if c, ok := in.Args[1].(*llvm.ConstInt); ok && c.Val > 1 {
				return c.Val / 2, true
			}
		}
	}
	return 16, true
}

// ownBlocks returns the numbers of the blocks of one iteration of l,
// excluding nested loops' bodies (which are collapsed separately), in
// reverse postorder. The slice is reused by the next call.
func (s *synth) ownBlocks(l *analysis.Loop) []int32 {
	body := s.body[:0]
outer:
	for _, b := range s.CFG.Order {
		if !l.Contains(b) {
			continue
		}
		for _, c := range l.Children {
			if c.Contains(b) {
				continue outer
			}
		}
		body = append(body, s.blockNum(b))
	}
	s.body = body
	return body
}

func (s *synth) synthLoop(idx int32) {
	l := s.Loops.Loops[idx]
	trip, estimated := s.tripOf(l)
	md := l.MD
	pipelined := md != nil && md.Pipeline && l.IsInnermost()

	var iterLat, totalLat int64
	ii := 1
	flattened := false

	// loop_flatten: merge this level into a flattened/pipelined only child
	// when the nest level is perfect — the inner pipeline keeps issuing
	// across outer iterations instead of refilling.
	if !pipelined && md != nil && md.Flatten && len(l.Children) == 1 {
		child := &s.loopRep[s.loopNum(l.Children[0])]
		if (child.Pipelined || child.Flattened) &&
			s.perfectNestLevel(l, l.Children[0]) && trip > 0 && child.Trip > 0 {
			flattened = true
			ii = child.II
			iterLat = child.IterLatency
			totalTrip := trip * child.Trip
			totalLat = iterLat + (totalTrip-1)*int64(ii)
			s.loopLat[idx] = totalLat
			rep := LoopReport{
				Header: l.Header.Name, Depth: l.Depth(), Trip: totalTrip,
				TripEstimated: estimated || child.TripEstimated,
				Flattened:     true, II: ii, IterLatency: iterLat, Latency: totalLat,
			}
			s.loopRep[idx] = rep
			s.reports = append(s.reports, rep)
			return
		}
	}

	if pipelined {
		body, cycles, resMII, rec := s.iteration(l)
		iterLat = cycles
		target := 1
		if md.II > 0 {
			target = md.II
		}
		ii = maxInt(target, maxInt(resMII, rec))
		if trip <= 0 {
			totalLat = 0
		} else {
			totalLat = iterLat + (trip-1)*int64(ii)
		}
		// Pipelined ops replicate: unit count = ops per iteration / II.
		s.addReplicatedArea(body, 1, ii)
	} else {
		// One iteration's latency is the longest path over the loop's
		// collapsed body DAG (nested loops count as single nodes with their
		// synthesized latency), plus one cycle of loop control (exit test).
		iterLat = s.longestPath(idx, l.Header) + 1
		unroll := int64(1)
		if md != nil && md.Unroll > 0 {
			unroll = int64(md.Unroll)
		} else if md != nil && md.Unroll == -1 {
			unroll = trip
			if unroll <= 0 {
				unroll = 1
			}
		}
		body := s.ownBlocks(l)
		if unroll > 1 {
			// Backend unroll (the pragma path): schedule the body replicated
			// unroll times, exactly as materialized unrolling would present
			// it — copies share ports and keep conservative same-array
			// store/load ordering.
			cycles, _ := s.schedule(body, int(unroll))
			iterLat = cycles + 1 // loop exit test
			trip = (trip + unroll - 1) / unroll
			s.addReplicatedArea(body, int(unroll), 1) // replicated datapath
		} else {
			// Shared datapath: units amortized over the iteration.
			s.addSharedArea(body)
		}
		if trip <= 0 {
			totalLat = 1
		} else {
			totalLat = trip*iterLat + 1
		}
	}

	s.loopLat[idx] = totalLat
	rep := LoopReport{
		Header:        l.Header.Name,
		Depth:         l.Depth(),
		Trip:          trip,
		TripEstimated: estimated,
		Pipelined:     pipelined,
		Flattened:     flattened,
		II:            ii,
		IterLatency:   iterLat,
		Latency:       totalLat,
	}
	s.loopRep[idx] = rep
	s.reports = append(s.reports, rep)
}

// iteration schedules one iteration of innermost loop l and returns its
// own blocks, its schedule length and the two floors its pipeline II
// cannot go below: the port-implied ResMII and the recurrence-implied
// RecMII. Each base's sequential accesses stay in s.accesses for s.bases.
// synthLoop and LoopBounds both bound a loop through it.
func (s *synth) iteration(l *analysis.Loop) (body []int32, cycles int64, resMII, rec int) {
	body = s.ownBlocks(l)
	cycles, resMII = s.schedule(body, 1)
	return body, cycles, resMII, s.recMII(l, body)
}

// recMII is the recurrence-constrained II of innermost loop l, whose own
// blocks are body, priced from the cost table.
func (s *synth) recMII(l *analysis.Loop, body []int32) int {
	mems := s.mems[:0]
	for _, b := range body {
		for i := s.first[b]; i < s.first[b+1]; i++ {
			if s.base[i] >= 0 {
				mems = append(mems, s.instrs[i])
			}
		}
	}
	s.mems = mems
	return recMII(s.DepEngine(), l, mems, s.PointsTo().MayAlias, s.latency)
}

// perfectNestLevel reports whether l's body consists only of the child loop
// plus loop control (the condition for loop_flatten to apply).
func (s *synth) perfectNestLevel(l, child *analysis.Loop) bool {
	for _, b := range l.Blocks() {
		if child.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case llvm.OpPhi, llvm.OpICmp, llvm.OpBr, llvm.OpCondBr,
				llvm.OpAdd, llvm.OpSub, llvm.OpSExt, llvm.OpZExt, llvm.OpTrunc:
			default:
				return false
			}
		}
	}
	return true
}

// dependsOnHeaderPhi reports whether v's computation reads any phi of the
// given loop header (i.e. varies across iterations).
func dependsOnHeaderPhi(v llvm.Value, header *llvm.Block, seen map[llvm.Value]bool) bool {
	if seen[v] {
		return false
	}
	seen[v] = true
	in, ok := v.(*llvm.Instr)
	if !ok {
		return false
	}
	if in.Op == llvm.OpPhi && in.Parent == header {
		return true
	}
	for _, a := range in.Args {
		if dependsOnHeaderPhi(a, header, seen) {
			return true
		}
	}
	return false
}

// longestPath computes the longest latency path from start over the DAG of
// the blocks of loop self (-1: the whole function), with each loop nested
// directly in it collapsed to one node of its synthesized latency. The back
// edge to self's header is ignored.
func (s *synth) longestPath(self int32, start *llvm.Block) int64 {
	if start == nil {
		return 0
	}
	s.pass++
	return s.longestFrom(s.nodeOf(s.blockNum(start), self), self)
}

// loopNum returns l's number: its position in Loops.Loops.
func (s *synth) loopNum(l *analysis.Loop) int32 { return int32(slices.Index(s.Loops.Loops, l)) }

// nodeOf returns block b's node in self's DAG: the last loop nested directly
// in self that holds b, else b itself.
func (s *synth) nodeOf(b, self int32) int32 {
	blk := s.F.Blocks[b]
	node := b
	if self >= 0 {
		for _, c := range s.Loops.Loops[self].Children {
			if c.Contains(blk) {
				node = int32(len(s.F.Blocks)) + s.loopNum(c)
			}
		}
		return node
	}
	for i, l := range s.Loops.Loops {
		if l.Parent == nil && l.Contains(blk) {
			node = int32(len(s.F.Blocks) + i)
		}
	}
	return node
}

func (s *synth) longestFrom(n, self int32) int64 {
	if s.memoPass[n] == s.pass {
		return s.memo[n]
	}
	if s.visiting[n] {
		return 0 // defensive: should not happen on a proper DAG
	}
	s.visiting[n] = true
	best := int64(0)
	nb := int32(len(s.F.Blocks))
	var lat int64
	if n < nb {
		for _, sb := range s.F.Blocks[n].Succs() {
			if v := s.edgeTo(n, sb, self); v > best {
				best = v
			}
		}
		cycles, _ := s.schedule([]int32{n}, 1)
		lat = maxInt64(cycles, 1)
	} else {
		for _, sb := range s.exitsOf(s.Loops.Loops[n-nb]) {
			if v := s.edgeTo(n, s.F.Blocks[sb], self); v > best {
				best = v
			}
		}
		lat = s.loopLat[n-nb]
	}
	s.visiting[n] = false
	v := lat + best
	s.memoPass[n] = s.pass
	s.memo[n] = v
	return v
}

// edgeTo returns the longest path from the node of sb, a successor of node
// n, or 0 when sb lies outside self's body, is self's header, or is part
// of n itself.
func (s *synth) edgeTo(n int32, sb *llvm.Block, self int32) int64 {
	if self >= 0 {
		if l := s.Loops.Loops[self]; !l.Contains(sb) || sb == l.Header {
			return 0
		}
	}
	sn := s.nodeOf(s.blockNum(sb), self)
	if sn == n {
		return 0
	}
	return s.longestFrom(sn, self)
}

// exitsOf returns the numbers of the blocks outside l that its blocks
// branch to. Each loop node is expanded once per synthesis, so the lists
// are appended to one buffer as they are needed.
func (s *synth) exitsOf(l *analysis.Loop) []int32 {
	start := len(s.exits)
	for _, b := range s.F.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, sb := range b.Succs() {
			if !l.Contains(sb) {
				s.exits = append(s.exits, s.blockNum(sb))
			}
		}
	}
	return s.exits[start:len(s.exits):len(s.exits)]
}

// addReplicatedArea adds replicated datapath area (pipelined/unrolled
// regions) for copies of body (see inCopy): unit count = ops of a kind
// divided by the initiation interval, each kind priced at its last op's
// cost.
func (s *synth) addReplicatedArea(body []int32, copies, ii int) {
	s.call++
	touched := s.kinds[:0]
	for _, b := range body {
		for i := s.first[b]; i < s.first[b+1]; i++ {
			k := s.area[i]
			if k < 0 || !s.inCopy(i, copies) {
				continue
			}
			if s.areaCall[k] != s.call {
				s.areaCall[k] = s.call
				s.areaCount[k] = 0
				touched = append(touched, k)
			}
			s.areaCount[k]++
			s.areaCost[k] = s.cost[i]
		}
	}
	for _, k := range touched {
		units := (s.areaCount[k]*copies + ii - 1) / ii
		c := s.areaCost[k]
		s.dsp += units * c.DSP
		s.lut += units * c.LUT
		s.ff += units * c.FF
	}
	s.kinds = touched
}

// addSharedArea adds shared-datapath area: one unit per operator kind
// present (the default sharing HLS applies outside pipelined regions),
// priced at the first op of the kind unless a later one needs more DSPs.
func (s *synth) addSharedArea(body []int32) {
	s.call++
	touched := s.kinds[:0]
	for _, b := range body {
		for i := s.first[b]; i < s.first[b+1]; i++ {
			k := s.area[i]
			if k < 0 {
				continue
			}
			if c := s.cost[i]; s.areaCall[k] != s.call {
				s.areaCall[k] = s.call
				s.areaCost[k] = c
				touched = append(touched, k)
			} else if c.DSP > s.areaCost[k].DSP {
				s.areaCost[k] = c
			}
		}
	}
	for _, k := range touched {
		c := s.areaCost[k]
		s.dsp += c.DSP
		s.lut += c.LUT
		s.ff += c.FF
	}
	s.kinds = touched
}

// estimateMemories sizes BRAM for array ports and local allocas, applying
// partition directives.
func (s *synth) estimateMemories(rep *Report) {
	addArray := func(argIdx int, ty *llvm.Type) {
		bits := ty.SizeBytes() * 8
		var p llvm.Partition
		if argIdx >= 0 {
			p = s.part[argIdx]
		}
		factor := p.Factor
		switch p.Kind {
		case "complete":
			// Fully partitioned into registers.
			rep.FF += int(bits)
			rep.LUT += int(bits / 2)
		case "cyclic", "block":
			if factor < 1 {
				factor = 1
			}
			per := (bits + int64(factor) - 1) / int64(factor)
			banks := factor * int((per+s.tgt.BRAMBits-1)/s.tgt.BRAMBits)
			rep.BRAM += banks
		default:
			if bits <= 1024 {
				rep.LUT += int(bits / 2) // LUTRAM
			} else {
				rep.BRAM += int((bits + s.tgt.BRAMBits - 1) / s.tgt.BRAMBits)
			}
		}
	}
	for i, p := range s.F.Params {
		if p.Ty.IsPtr() && p.Ty.Elem != nil && p.Ty.Elem.IsArray() {
			addArray(i, p.Ty.Elem)
		}
	}
	for _, b := range s.F.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpAlloca && in.SrcElem.IsArray() {
				addArray(-1, in.SrcElem)
			}
		}
	}
}

// estimateControl adds FSM and loop-control overhead.
func (s *synth) estimateControl(rep *Report) {
	rep.LUT += 50 * len(s.F.Blocks)
	rep.FF += 80 * len(s.F.Blocks)
	rep.LUT += 100 * len(s.Loops.Loops)
	rep.FF += 64 * len(s.Loops.Loops)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
