// Package deptest is the exact affine dependence-test engine of the
// static-analysis layer. Over the loop nests recovered from LLVM IR
// (analysis.FindLoops/InductionVar) it extracts affine access functions
// (c0 + Σ ci·ivi) from GEP chains, classifies each subscript pair
// (ZIV / strong-SIV / weak-SIV / MIV), and runs the GCD and Banerjee bounds
// tests with trip-count-derived iteration bounds to decide, per load/store
// pair, whether a dependence exists — and when it does, its distance or
// direction vector per loop level.
//
// Two layers consume the verdicts: lint's loop-carried-dep and gep-bounds
// checks (provably independent pairs stop firing and diagnostics report
// exact distances), and the scheduler's distance-aware RecMII, which lint
// and the DSE pre-check read through hls.LoopBounds (a distance-d
// recurrence bounds the II at ceil(latency/d) instead of the latency
// itself).
//
// The engine is strictly conservative: whenever an access is not affine
// (unrecognized induction variable, chained GEPs, products of variables) the
// verdict is Unknown and callers fall back to the alias-plus-structural
// model that predates this package.
package deptest

import (
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Result is a dependence verdict.
type Result int

// Verdicts, from least to most informative.
const (
	// Unknown means the engine could not decide (non-affine access, no
	// recognized loop structure): callers must stay conservative.
	Unknown Result = iota
	// Independent means the pair provably never touches the same location
	// under the queried direction constraints.
	Independent
	// Dependent means a dependence exists (or cannot be excluded) with the
	// reported distance/direction information.
	Dependent
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Independent:
		return "independent"
	case Dependent:
		return "dependent"
	}
	return "unknown"
}

// Dir is a per-level dependence direction.
type Dir byte

// Directions: '=' (same iteration), '<' (source in an earlier iteration),
// '>' (source in a later iteration), '*' (unconstrained).
const (
	DirEq   Dir = '='
	DirLt   Dir = '<'
	DirGt   Dir = '>'
	DirStar Dir = '*'
)

// Level is one loop level of a dependence vector.
type Level struct {
	Loop *analysis.Loop
	Dir  Dir
	// Dist is the exact signed iteration distance (sink minus source) when
	// Known; direction-only levels leave it zero.
	Dist  int64
	Known bool
}

// Vector is a dependence vector, outermost level first.
type Vector []Level

// String renders the vector in the classic notation, exact distances as
// numbers and direction-only levels as their direction character:
// "(1, 0)" or "(<, *)".
func (v Vector) String() string {
	s := "("
	for i, lv := range v {
		if i > 0 {
			s += ", "
		}
		if lv.Known {
			s += itoa64(lv.Dist)
		} else {
			s += string(lv.Dir)
		}
	}
	return s + ")"
}

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// CarriedDep is the verdict of a carried-dependence query at one loop level.
type CarriedDep struct {
	Res Result
	// Dist is the dependence distance in iterations of the queried loop
	// (>= 1 when Res == Dependent). Exact marks a distance the subscript
	// equations pin down; inexact dependences conservatively report the
	// minimum distance 1.
	Dist  int64
	Exact bool
	// Tests lists the subscript classifications and tests applied, for
	// diagnostics ("ziv", "strong-siv", "weak-siv", "miv", "gcd",
	// "banerjee", "points-to", "non-affine").
	Tests []string
}

// Edge is one dependence between two memory instructions of a loop nest.
type Edge struct {
	Src, Dst *llvm.Instr
	// Kind is "flow" (store→load), "anti" (load→store), or "output"
	// (store→store).
	Kind string
	Base llvm.Value
	Res  Result
	// Vectors enumerates the feasible lexicographically non-negative
	// dependence vectors over the pair's common loop nest (empty for
	// Unknown edges).
	Vectors []Vector
	Tests   []string
}

// loopIV pairs a recognized induction phi with its loop.
type loopIV struct {
	loop *analysis.Loop
	iv   analysis.IndVar
}

type carriedKey struct {
	l      *analysis.Loop
	st, ld *llvm.Instr
}

// Engine caches per-function dependence state: recognized induction
// variables, loop nests, decomposed accesses, and carried-dependence
// verdicts. An Engine is not safe for concurrent use.
type Engine struct {
	li       *analysis.LoopInfo
	mayAlias func(a, b llvm.Value) bool

	ivLoops map[*llvm.Instr]loopIV
	// trips maps each loop to its constant trip count, -1 when unknown.
	trips map[*analysis.Loop]int64
	// nests is filled on first use.
	nests map[*llvm.Block][]*analysis.Loop
	acc   map[llvm.Value]accessInfo
	cache map[carriedKey]CarriedDep
}

// New builds a dependence engine over the loop structure li of a function.
// mayAlias (may be nil) is a points-to oracle consulted before any
// subscript test: pairs it disproves are Independent outright.
func New(li *analysis.LoopInfo, mayAlias func(a, b llvm.Value) bool) *Engine {
	e := &Engine{
		li: li, mayAlias: mayAlias,
		ivLoops: map[*llvm.Instr]loopIV{},
		trips:   map[*analysis.Loop]int64{},
		nests:   map[*llvm.Block][]*analysis.Loop{},
		acc:     map[llvm.Value]accessInfo{},
		cache:   map[carriedKey]CarriedDep{},
	}
	for _, l := range li.Loops {
		if iv, ok := analysis.InductionVar(l); ok {
			e.ivLoops[iv.Phi] = loopIV{loop: l, iv: iv}
			e.trips[l] = iv.Trip()
		} else {
			e.trips[l] = -1
		}
	}
	return e
}

// nestOf returns the loops enclosing an instruction, outermost first.
func (e *Engine) nestOf(in *llvm.Instr) []*analysis.Loop {
	if in.Parent == nil {
		return nil
	}
	nest, ok := e.nests[in.Parent]
	if !ok {
		nest = e.li.NestOf(in.Parent)
		e.nests[in.Parent] = nest
	}
	return nest
}

// before reports whether instruction a of f comes strictly before b: the
// CFG the loops were found in numbered f's instructions in layout order.
func (e *Engine) before(a, b *llvm.Instr) bool { return a.ID < b.ID }

// pairCtx is the loop context of one access pair: the common nest (loops
// enclosing both instructions, outermost first) and the loops enclosing
// exactly one side, whose iteration variables are free in the equations.
type pairCtx struct {
	common       []*analysis.Loop
	freeS, freeL []*analysis.Loop
}

func (e *Engine) pairContext(src, dst *llvm.Instr) pairCtx {
	ns, nd := e.nestOf(src), e.nestOf(dst)
	inDst := map[*analysis.Loop]bool{}
	for _, l := range nd {
		inDst[l] = true
	}
	var pc pairCtx
	common := map[*analysis.Loop]bool{}
	for _, l := range ns {
		if inDst[l] {
			pc.common = append(pc.common, l)
			common[l] = true
		} else {
			pc.freeS = append(pc.freeS, l)
		}
	}
	for _, l := range nd {
		if !common[l] {
			pc.freeL = append(pc.freeL, l)
		}
	}
	return pc
}

// coeffsContained checks that every loop an affine form references encloses
// the access (loops outside the nest would mean a phi value read after its
// loop exited, which these tests do not model).
func coeffsContained(a affineExpr, nest []*analysis.Loop) bool {
	in := map[*analysis.Loop]bool{}
	for _, l := range nest {
		in[l] = true
	}
	for _, l := range a.loops() {
		if !in[l] {
			return false
		}
	}
	return true
}

func addrOf(in *llvm.Instr) llvm.Value {
	if in.Op == llvm.OpStore {
		return in.Args[1]
	}
	return in.Args[0]
}

// Carried answers the recurrence query behind RecMII and the
// loop-carried-dep lint: does the store's value, written in some iteration
// of l, reach the load in a LATER iteration of l (outer common loops at
// equal iterations, inner loops unconstrained)? The result distinguishes a
// proven absence (Independent), a dependence with an exact or
// direction-only distance (Dependent), and the conservative Unknown for
// non-affine accesses.
func (e *Engine) Carried(l *analysis.Loop, st, ld *llvm.Instr) CarriedDep {
	if l == nil || st == nil || ld == nil ||
		st.Op != llvm.OpStore || ld.Op != llvm.OpLoad {
		return CarriedDep{Res: Unknown}
	}
	key := carriedKey{l, st, ld}
	if cd, ok := e.cache[key]; ok {
		return cd
	}
	cd := e.carried(l, st, ld)
	e.cache[key] = cd
	return cd
}

func (e *Engine) carried(l *analysis.Loop, st, ld *llvm.Instr) CarriedDep {
	stPtr, ldPtr := st.Args[1], ld.Args[0]
	if e.mayAlias != nil && !e.mayAlias(stPtr, ldPtr) {
		return CarriedDep{Res: Independent, Tests: []string{"points-to"}}
	}
	sa, sb := e.accessOf(stPtr), e.accessOf(ldPtr)
	if !sa.ok || !sb.ok {
		return CarriedDep{Res: Unknown, Tests: []string{"non-affine"}}
	}
	if sa.base != sb.base {
		// May-alias but distinct SSA roots: outside the affine model.
		return CarriedDep{Res: Unknown, Tests: []string{"distinct-bases"}}
	}
	if len(sa.subs) != len(sb.subs) {
		return CarriedDep{Res: Unknown, Tests: []string{"shape-mismatch"}}
	}
	pc := e.pairContext(st, ld)
	p := -1
	for i, cl := range pc.common {
		if cl == l {
			p = i
		}
	}
	if p < 0 {
		return CarriedDep{Res: Unknown, Tests: []string{"outside-nest"}}
	}
	if !coeffsContained(allSubs(sa), e.nestOf(st)) ||
		!coeffsContained(allSubs(sb), e.nestOf(ld)) {
		return CarriedDep{Res: Unknown, Tests: []string{"non-affine"}}
	}
	if e.zeroTrip(pc) {
		return CarriedDep{Res: Independent, Tests: []string{"zero-trip"}}
	}
	// A carried dependence needs at least two iterations of l.
	if t := e.trips[l]; t >= 0 && t < 2 {
		return CarriedDep{Res: Independent, Tests: []string{"trip"}}
	}

	cfg := make([]Dir, len(pc.common))
	for i := range cfg {
		switch {
		case i < p:
			cfg[i] = DirEq
		case i == p:
			cfg[i] = DirLt
		default:
			cfg[i] = DirStar
		}
	}

	if len(sa.subs) == 0 {
		// Direct pointer accesses to the same cell: a distance-1 recurrence.
		return CarriedDep{Res: Dependent, Dist: 1, Exact: true, Tests: []string{"scalar"}}
	}

	var tests []string
	pinned := false
	var pinDist int64
	allAny := true
	for k := range sa.subs {
		r := e.testSubscript(sa.subs[k], sb.subs[k], pc, cfg, p)
		tests = appendUnique(tests, r.tests...)
		if !r.feasible {
			return CarriedDep{Res: Independent, Tests: tests}
		}
		if r.pinned {
			if pinned && r.dist != pinDist {
				// Two subscripts demand contradictory distances.
				return CarriedDep{Res: Independent, Tests: tests}
			}
			pinned, pinDist = true, r.dist
		}
		if !r.anyDist && !r.pinned {
			allAny = false
		}
	}
	switch {
	case pinned:
		return CarriedDep{Res: Dependent, Dist: pinDist, Exact: true, Tests: tests}
	case allAny:
		// Every subscript is satisfied at every distance: the minimum
		// distance 1 is realized (the loop-invariant-address recurrence).
		return CarriedDep{Res: Dependent, Dist: 1, Exact: true, Tests: tests}
	default:
		return CarriedDep{Res: Dependent, Dist: 1, Exact: false, Tests: tests}
	}
}

func allSubs(a accessInfo) affineExpr {
	out := affineExpr{coeff: map[*analysis.Loop]int64{}}
	for _, s := range a.subs {
		for l, c := range s.coeff {
			if c != 0 {
				out.coeff[l] = 1
			}
		}
	}
	return out
}

// zeroTrip reports whether any loop of the pair context provably never
// iterates, in which case one of the accesses never executes.
func (e *Engine) zeroTrip(pc pairCtx) bool {
	for _, ls := range [][]*analysis.Loop{pc.common, pc.freeS, pc.freeL} {
		for _, l := range ls {
			if e.trips[l] == 0 {
				return true
			}
		}
	}
	return false
}

func appendUnique(dst []string, vs ...string) []string {
	for _, v := range vs {
		dup := false
		for _, h := range dst {
			if h == v {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, v)
		}
	}
	return dst
}

// maxNestLevels caps direction-vector enumeration (3^k configurations).
const maxNestLevels = 6

// Edges enumerates the dependences among the memory accesses of the loop
// nest rooted at root: every ordered (src, dst) pair involving a store whose
// addresses may alias, with the feasible lexicographically non-negative
// direction vectors over the pair's common nest. Pairs the points-to
// analysis already separates are omitted; affine-proven independent pairs
// are reported with Res == Independent so consumers can see the precision.
func (e *Engine) Edges(root *analysis.Loop) []Edge {
	var mems []*llvm.Instr
	for _, b := range e.li.CFG.F.Blocks {
		if !root.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == llvm.OpLoad || in.Op == llvm.OpStore {
				mems = append(mems, in)
			}
		}
	}
	var out []Edge
	for _, src := range mems {
		for _, dst := range mems {
			if src.Op != llvm.OpStore && dst.Op != llvm.OpStore {
				continue // input dependences are irrelevant
			}
			if e.mayAlias != nil && !e.mayAlias(addrOf(src), addrOf(dst)) {
				continue
			}
			out = append(out, e.edge(src, dst))
		}
	}
	return out
}

func depKind(src, dst *llvm.Instr) string {
	switch {
	case src.Op == llvm.OpStore && dst.Op == llvm.OpLoad:
		return "flow"
	case src.Op == llvm.OpLoad && dst.Op == llvm.OpStore:
		return "anti"
	default:
		return "output"
	}
}

func (e *Engine) edge(src, dst *llvm.Instr) Edge {
	ed := Edge{Src: src, Dst: dst, Kind: depKind(src, dst), Res: Unknown}
	sa, sb := e.accessOf(addrOf(src)), e.accessOf(addrOf(dst))
	if !sa.ok || !sb.ok {
		ed.Tests = []string{"non-affine"}
		return ed
	}
	if sa.base != sb.base {
		ed.Tests = []string{"distinct-bases"}
		return ed
	}
	ed.Base = sa.base
	if len(sa.subs) != len(sb.subs) {
		ed.Tests = []string{"shape-mismatch"}
		return ed
	}
	pc := e.pairContext(src, dst)
	if len(pc.common) > maxNestLevels {
		ed.Tests = []string{"nest-too-deep"}
		return ed
	}
	if !coeffsContained(allSubs(sa), e.nestOf(src)) ||
		!coeffsContained(allSubs(sb), e.nestOf(dst)) {
		ed.Tests = []string{"non-affine"}
		return ed
	}
	if e.zeroTrip(pc) {
		ed.Res = Independent
		ed.Tests = []string{"zero-trip"}
		return ed
	}

	cfg := make([]Dir, len(pc.common))
	var tests []string
	var vectors []Vector
	var enum func(i int)
	enum = func(i int) {
		if i == len(cfg) {
			if !lexNonNegative(cfg) {
				return
			}
			if allEq(cfg) && (src == dst || !e.before(src, dst)) {
				return // same-iteration dep needs source before sink
			}
			feasible := true
			for k := range sa.subs {
				r := e.testSubscript(sa.subs[k], sb.subs[k], pc, cfg, -1)
				tests = appendUnique(tests, r.tests...)
				if !r.feasible {
					feasible = false
					break
				}
			}
			if !feasible {
				return
			}
			vectors = append(vectors, e.annotate(cfg, pc, sa, sb))
			return
		}
		for _, d := range [...]Dir{DirEq, DirLt, DirGt} {
			cfg[i] = d
			enum(i + 1)
		}
	}
	// An empty common nest falls out of the same enumeration: the zero-length
	// configuration is all-'=', so plain program order decides.
	enum(0)
	ed.Tests = tests
	if len(vectors) == 0 {
		ed.Res = Independent
		return ed
	}
	ed.Res = Dependent
	ed.Vectors = vectors
	return ed
}

func lexNonNegative(cfg []Dir) bool {
	for _, d := range cfg {
		switch d {
		case DirLt:
			return true
		case DirGt:
			return false
		}
	}
	return true // all '='
}

func allEq(cfg []Dir) bool {
	for _, d := range cfg {
		if d != DirEq {
			return false
		}
	}
	return true
}

// annotate converts a feasible direction configuration into a Vector,
// pinning exact distances where the subscript equations determine them.
func (e *Engine) annotate(cfg []Dir, pc pairCtx, sa, sb accessInfo) Vector {
	vec := make(Vector, len(cfg))
	for i, d := range cfg {
		vec[i] = Level{Loop: pc.common[i], Dir: d}
		if d == DirEq {
			vec[i].Dist, vec[i].Known = 0, true
			continue
		}
		pinned := false
		var dist int64
		consistent := true
		for k := range sa.subs {
			pd, ok := e.pinAt(sa.subs[k], sb.subs[k], pc, cfg, i)
			if !ok {
				continue
			}
			if pinned && pd != dist {
				consistent = false
				break
			}
			pinned, dist = true, pd
		}
		if pinned && consistent {
			vec[i].Dist, vec[i].Known = dist, true
		}
	}
	return vec
}
