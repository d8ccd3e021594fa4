package hls

import (
	"repro/internal/absint"
	"repro/internal/bitwidth"
	"repro/internal/deptest"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Analyses is one function's analysis set: every read-only analysis a
// consumer of the function asks for, each built at most once and handed
// to every client — synthesis and its loop bounds, lint's checks, and
// hls-lint's dependence and width summaries — in the manner of MLIR's
// AnalysisManager. Analyze builds the CFG, dominator tree and loop nest;
// the rest is built on first use, so a consumer that needs nothing more
// pays for nothing more.
//
// A set describes its function as it was when the set was built, so it
// lives for one consumer call on a function that call does not change. It
// is never stored on the IR, in a global or in a pool, so no invalidation
// rule exists.
type Analyses struct {
	F     *llvm.Function
	CFG   *analysis.CFG
	Dom   *analysis.DomTree
	Loops *analysis.LoopInfo

	intervals *absint.IntervalResult
	sccp      *absint.SCCPResult
	pts       *absint.PointsToResult
	dep       *deptest.Engine
	widths    *bitwidth.Analysis
}

// Analyze builds f's analysis set. Building the CFG renumbers f, so it
// needs the same exclusive access to the module as a pass; every later
// analysis of the set reads that numbering.
func Analyze(f *llvm.Function) *Analyses {
	cfg := analysis.NewCFG(f)
	dom := analysis.NewDomTree(cfg)
	return &Analyses{F: f, CFG: cfg, Dom: dom, Loops: analysis.FindLoops(cfg, dom)}
}

// Intervals returns the function's value ranges.
func (a *Analyses) Intervals() *absint.IntervalResult {
	if a.intervals == nil {
		a.intervals = absint.Intervals(a.Loops)
	}
	return a.intervals
}

// SCCP returns the function's sparse conditional constant propagation.
func (a *Analyses) SCCP() *absint.SCCPResult {
	if a.sccp == nil {
		a.sccp = absint.SCCP(a.Loops)
	}
	return a.sccp
}

// PointsTo returns the function's points-to relation.
func (a *Analyses) PointsTo() *absint.PointsToResult {
	if a.pts == nil {
		a.pts = absint.PointsTo(a.F)
	}
	return a.pts
}

// DepEngine returns the function's affine dependence engine, which
// consults the points-to relation before any subscript test.
func (a *Analyses) DepEngine() *deptest.Engine {
	if a.dep == nil {
		a.dep = deptest.New(a.Loops, a.PointsTo().MayAlias)
	}
	return a.dep
}

// Bitwidth returns the function's width oracle: known and demanded bits
// fused with the set's intervals.
func (a *Analyses) Bitwidth() *bitwidth.Analysis {
	if a.widths == nil {
		a.widths = bitwidth.Analyze(a.Loops, a.Intervals())
	}
	return a.widths
}

// BlockPos returns b's position in the function's block list, or 0 for a
// block the function does not hold.
func (a *Analyses) BlockPos(b *llvm.Block) int {
	if a.holds(b) {
		return int(b.ID)
	}
	return 0
}

// InstrPos returns in's position within its block, read off the numbering
// the set's CFG wrote, or 0 for an instruction the function does not hold.
func (a *Analyses) InstrPos(in *llvm.Instr) int {
	if b := in.Parent; b != nil && a.holds(b) && len(b.Instrs) > 0 {
		if k := int(in.ID - b.Instrs[0].ID); k >= 0 && k < len(b.Instrs) && b.Instrs[k] == in {
			return k
		}
	}
	return 0
}

// holds reports whether b is a block of the function.
func (a *Analyses) holds(b *llvm.Block) bool {
	i := int(b.ID)
	return i >= 0 && i < len(a.F.Blocks) && a.F.Blocks[i] == b
}

// Carried calls yield for every store→load pair of loop l whose store may
// reach the load in a later iteration of l: the pairs synthesis prices an
// innermost loop's RecMII from (see carried). The accesses of loops nested
// in l count, since l can carry a value through them.
func (a *Analyses) Carried(l *analysis.Loop, yield func(CarriedPair)) {
	var mems []*llvm.Instr
	for _, b := range a.CFG.Order {
		if !l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == llvm.OpLoad || in.Op == llvm.OpStore {
				mems = append(mems, in)
			}
		}
	}
	carried(a.DepEngine(), l, mems, a.PointsTo().MayAlias, yield)
}
