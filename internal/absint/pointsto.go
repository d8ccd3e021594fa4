package absint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/llvm"
)

// Loc is one abstract memory location: a root allocation (alloca
// instruction or pointer parameter) plus a flat constant element index.
// Elem = ElemUnknown means "some element of Root". Field sensitivity for
// static array shapes comes from folding constant GEP indices into Elem via
// the row-major layout.
type Loc struct {
	Root llvm.Value
	Elem int64
}

// ElemUnknown marks a location whose element offset is not a compile-time
// constant.
const ElemUnknown = int64(-1)

// PointsToResult is the flow-insensitive Andersen-style points-to relation
// of one function. Pointer roots are the function's allocas and pointer
// parameters; HLS interface arrays are physically disjoint memories, so
// distinct roots never alias — the same per-base model the scheduler's
// MemAccesses/port accounting already assumes.
type PointsToResult struct {
	sets map[llvm.Value]map[Loc]bool
	// escapes maps a root to the first reason its address left the
	// function's view (callee argument, stored as a value, ptrtoint, ...).
	escapes map[llvm.Value]string
	// unknown marks pointer values with no computable target set (loaded
	// pointers, inttoptr); they may alias anything.
	unknown map[llvm.Value]bool
	// rootName gives roots deterministic names for Describe output.
	rootName map[llvm.Value]string
}

// PointsTo computes the points-to relation for f.
func PointsTo(f *llvm.Function) *PointsToResult {
	r := &PointsToResult{
		sets:     map[llvm.Value]map[Loc]bool{},
		escapes:  map[llvm.Value]string{},
		unknown:  map[llvm.Value]bool{},
		rootName: map[llvm.Value]string{},
	}
	// Roots: pointer parameters and allocas.
	for i, p := range f.Params {
		if p.Ty.IsPtr() {
			r.addTarget(p, Loc{Root: p, Elem: 0})
			r.rootName[p] = fmt.Sprintf("%%%s (arg%d)", p.Name, i)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpAlloca {
				r.addTarget(in, Loc{Root: in, Elem: 0})
				r.rootName[in] = fmt.Sprintf("%%%s (alloca)", in.Name)
			}
		}
	}
	// Constraint propagation to fixpoint: the subset constraints of the
	// pointer-producing instructions, iterated until stable (the function
	// bodies are small enough that a simple round-robin converges fast).
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if r.applyInstr(in) {
					changed = true
				}
			}
		}
	}
	// Escape collection (after sets stabilize, so pointer copies are known).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			r.collectEscapes(in)
		}
	}
	return r
}

// applyInstr adds the instruction's points-to constraints; reports change.
func (r *PointsToResult) applyInstr(in *llvm.Instr) bool {
	switch in.Op {
	case llvm.OpGEP:
		off, known := r.gepOffset(in)
		changed := false
		for l := range r.sets[in.Args[0]] {
			nl := Loc{Root: l.Root, Elem: ElemUnknown}
			if known && l.Elem != ElemUnknown {
				nl.Elem = l.Elem + off
			}
			if r.addTarget(in, nl) {
				changed = true
			}
		}
		if r.unknown[in.Args[0]] && !r.unknown[in] {
			r.unknown[in] = true
			changed = true
		}
		return changed
	case llvm.OpBitcast:
		return r.copyFrom(in, in.Args[0])
	case llvm.OpSelect:
		if in.Ty.IsPtr() {
			c := r.copyFrom(in, in.Args[1])
			return r.copyFrom(in, in.Args[2]) || c
		}
	case llvm.OpPhi:
		if in.Ty.IsPtr() {
			changed := false
			for _, a := range in.Args {
				if r.copyFrom(in, a) {
					changed = true
				}
			}
			return changed
		}
	case llvm.OpLoad, llvm.OpIntToPtr, llvm.OpCall, llvm.OpExtractValue:
		if in.Ty.IsPtr() && !r.unknown[in] {
			r.unknown[in] = true
			return true
		}
	}
	return false
}

// gepOffset folds a GEP's indices into a flat element offset using the
// static array shape of its source element type. ok=false when any index is
// non-constant (the target element is then unknown).
func (r *PointsToResult) gepOffset(in *llvm.Instr) (int64, bool) {
	// Leading index steps over whole objects of the source element type;
	// inner indices walk the array shape row-major.
	consts := make([]int64, 0, len(in.Args)-1)
	for _, a := range in.Args[1:] {
		c, ok := a.(*llvm.ConstInt)
		if !ok {
			return 0, false
		}
		consts = append(consts, c.Val)
	}
	if len(consts) == 0 {
		return 0, true
	}
	ty := in.SrcElem
	off := consts[0] * flatLen(ty)
	for _, c := range consts[1:] {
		if ty == nil || !ty.IsArray() {
			return 0, false // struct GEPs and over-indexing: stay unknown
		}
		ty = ty.Elem
		off += c * flatLen(ty)
	}
	return off, true
}

// flatLen returns the number of scalar elements a type flattens to.
func flatLen(ty *llvm.Type) int64 {
	if ty == nil {
		return 1
	}
	if ty.IsArray() {
		return ty.N * flatLen(ty.Elem)
	}
	return 1
}

func (r *PointsToResult) addTarget(v llvm.Value, l Loc) bool {
	s := r.sets[v]
	if s == nil {
		s = map[Loc]bool{}
		r.sets[v] = s
	}
	if s[l] {
		return false
	}
	s[l] = true
	return true
}

func (r *PointsToResult) copyFrom(dst llvm.Value, src llvm.Value) bool {
	changed := false
	for l := range r.sets[src] {
		if r.addTarget(dst, l) {
			changed = true
		}
	}
	if r.unknown[src] && !r.unknown[dst] {
		r.unknown[dst] = true
		changed = true
	}
	return changed
}

// collectEscapes records roots whose address flows somewhere this analysis
// cannot track: callee arguments, stored-as-value, integer casts, returns,
// aggregate inserts.
func (r *PointsToResult) collectEscapes(in *llvm.Instr) {
	reason := ""
	var args []llvm.Value
	switch in.Op {
	case llvm.OpCall:
		reason = "passed to call @" + in.Callee
		args = in.Args
	case llvm.OpPtrToInt:
		reason = "cast to integer"
		args = in.Args
	case llvm.OpRet:
		reason = "returned"
		args = in.Args
	case llvm.OpInsertValue:
		reason = "packed into an aggregate"
		args = in.Args
	case llvm.OpStore:
		reason = "stored as a value"
		args = in.Args[:1] // only the stored value escapes, not the address
	default:
		return
	}
	for _, a := range args {
		if a == nil || a.Type() == nil || !a.Type().IsPtr() {
			continue
		}
		for l := range r.sets[a] {
			if _, seen := r.escapes[l.Root]; !seen {
				r.escapes[l.Root] = fmt.Sprintf("%s %s", a.Ident(), reason)
			}
		}
	}
}

// Targets returns v's location set; ok=false when v is untracked or may
// point anywhere (treat as aliasing everything).
func (r *PointsToResult) Targets(v llvm.Value) ([]Loc, bool) {
	if r.unknown[v] {
		return nil, false
	}
	s := r.sets[v]
	if len(s) == 0 {
		return nil, false
	}
	out := make([]Loc, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		ni, nj := r.rootName[out[i].Root], r.rootName[out[j].Root]
		if ni != nj {
			return ni < nj
		}
		return out[i].Elem < out[j].Elem
	})
	return out, true
}

// MayAlias reports whether two pointer values may address the same memory.
// Distinct roots never alias (allocas are separate storage; HLS interface
// arrays are disjoint physical memories, matching the scheduler's per-base
// model). Same-root locations alias unless both element indices are known
// and different.
func (r *PointsToResult) MayAlias(a, b llvm.Value) bool {
	sa, sb := r.sets[a], r.sets[b]
	if r.unknown[a] || r.unknown[b] || len(sa) == 0 || len(sb) == 0 {
		return true // unknown pointer: assume the worst
	}
	for la := range sa {
		if la.Elem != ElemUnknown {
			// A known element meets the same element or the whole root.
			if sb[la] || sb[Loc{Root: la.Root, Elem: ElemUnknown}] {
				return true
			}
			continue
		}
		for lb := range sb {
			if lb.Root == la.Root {
				return true
			}
		}
	}
	return false
}

// Escaped reports whether the root allocation's address left the function's
// view, with the reason (empty when it did not escape).
func (r *PointsToResult) Escaped(root llvm.Value) (string, bool) {
	reason, ok := r.escapes[root]
	return reason, ok
}

// DerivedFrom reports whether every location v may point to lies in root
// (v is a pointer into that allocation and nothing else).
func (r *PointsToResult) DerivedFrom(v llvm.Value, root llvm.Value) bool {
	s, ok := r.Targets(v)
	if !ok || len(s) == 0 {
		return false
	}
	for _, l := range s {
		if l.Root != root {
			return false
		}
	}
	return true
}

// Touches reports whether v may point into root.
func (r *PointsToResult) Touches(v llvm.Value, root llvm.Value) bool {
	s, ok := r.Targets(v)
	if !ok {
		return true
	}
	for _, l := range s {
		if l.Root == root {
			return true
		}
	}
	return false
}

// Describe renders v's points-to set for diagnostics and -explain output.
func (r *PointsToResult) Describe(v llvm.Value) string {
	s, ok := r.Targets(v)
	if !ok {
		return "{unknown: may alias any memory}"
	}
	parts := make([]string, 0, len(s))
	for _, l := range s {
		name := r.rootName[l.Root]
		if name == "" {
			name = l.Root.Ident()
		}
		if l.Elem == ElemUnknown {
			parts = append(parts, name+"[*]")
		} else {
			parts = append(parts, fmt.Sprintf("%s[%d]", name, l.Elem))
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
