package absint

import (
	"fmt"
	"slices"
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
//
// Each pointer value has a node holding its location set as a short slice.
// Parameter nodes come first, in parameter order; an instruction's node is
// found through slot, indexed by its layout number.
type PointsToResult struct {
	f       *llvm.Function
	nodes   []ptsNode
	nParams int     // nodes[:nParams] are the pointer parameters
	slot    []int32 // instruction number -> node index + 1, or 0

	// roots holds, per node, a root's escape reason and name. Only lint
	// reads them, so they are worked out on the first call that needs
	// them; synthesis builds the relation for MayAlias alone.
	roots                  []rootInfo
	escapesDone, namesDone bool
}

// ptsNode is one pointer value's state.
type ptsNode struct {
	v    llvm.Value
	locs []Loc
	// unknown marks a pointer with no computable target set (a loaded
	// pointer, inttoptr); it may alias anything.
	unknown bool
}

// rootInfo is what lint reads of a root: the first reason its address left
// the function's view (callee argument, stored as a value, ptrtoint, ...)
// and its name for Describe output.
type rootInfo struct {
	escape  string
	escaped bool
	name    string
}

// isPtrNode reports whether in gets a node: every pointer-typed value, and
// the GEPs and bitcasts whose constraints copy a set.
func isPtrNode(in *llvm.Instr) bool {
	return in.Op == llvm.OpGEP || in.Op == llvm.OpBitcast || in.Ty.IsPtr()
}

// PointsTo computes the points-to relation for f.
func PointsTo(f *llvm.Function) *PointsToResult {
	r := &PointsToResult{f: f, slot: make([]int32, f.Renumber())}
	n := 0
	for _, p := range f.Params {
		if p.Ty.IsPtr() {
			n++
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if isPtrNode(in) {
				n++
			}
		}
	}
	// Most sets hold one location, so every node starts with room for one
	// in a shared array; a second location moves the set to its own.
	r.nodes = make([]ptsNode, 0, n)
	first := make([]Loc, n)
	add := func(v llvm.Value, root bool) {
		k := len(r.nodes)
		locs := first[k : k : k+1]
		if root {
			locs = append(locs, Loc{Root: v, Elem: 0})
		}
		r.nodes = append(r.nodes, ptsNode{v: v, locs: locs})
	}
	// Roots: pointer parameters and allocas.
	for _, p := range f.Params {
		if p.Ty.IsPtr() {
			add(p, true)
		}
	}
	r.nParams = len(r.nodes)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if isPtrNode(in) {
				add(in, in.Op == llvm.OpAlloca)
				r.slot[in.ID] = int32(len(r.nodes))
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
	return r
}

// index returns the number of v's node, or -1 when v is no pointer value
// of the function.
func (r *PointsToResult) index(v llvm.Value) int {
	switch v := v.(type) {
	case *llvm.Instr:
		if id := int(v.ID); id >= 0 && id < len(r.slot) {
			if k := int(r.slot[id]) - 1; k >= 0 && r.nodes[k].v == llvm.Value(v) {
				return k
			}
		}
	case *llvm.Param:
		for i := range r.nodes[:r.nParams] {
			if r.nodes[i].v == llvm.Value(v) {
				return i
			}
		}
	}
	return -1
}

// node returns v's node, or nil when v is no pointer value of the function.
func (r *PointsToResult) node(v llvm.Value) *ptsNode {
	if k := r.index(v); k >= 0 {
		return &r.nodes[k]
	}
	return nil
}

// applyInstr adds the instruction's points-to constraints; reports change.
func (r *PointsToResult) applyInstr(in *llvm.Instr) bool {
	switch in.Op {
	case llvm.OpGEP:
		dst := r.node(in)
		src := r.node(in.Args[0])
		if src == nil {
			return false
		}
		off, known := gepOffset(in)
		changed := false
		for _, l := range src.locs {
			nl := Loc{Root: l.Root, Elem: ElemUnknown}
			if known && l.Elem != ElemUnknown {
				nl.Elem = l.Elem + off
			}
			if dst.add(nl) {
				changed = true
			}
		}
		if src.unknown && !dst.unknown {
			dst.unknown = true
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
		if in.Ty.IsPtr() {
			if n := r.node(in); !n.unknown {
				n.unknown = true
				return true
			}
		}
	}
	return false
}

// gepOffset folds a GEP's indices into a flat element offset using the
// static array shape of its source element type. ok=false when any index is
// non-constant (the target element is then unknown).
func gepOffset(in *llvm.Instr) (int64, bool) {
	// Leading index steps over whole objects of the source element type;
	// inner indices walk the array shape row-major.
	ty := in.SrcElem
	off := int64(0)
	for i, a := range in.Args[1:] {
		c, ok := a.(*llvm.ConstInt)
		if !ok {
			return 0, false
		}
		if i > 0 {
			if ty == nil || !ty.IsArray() {
				return 0, false // struct GEPs and over-indexing: stay unknown
			}
			ty = ty.Elem
		}
		off += c.Val * flatLen(ty)
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

// add puts l into n's location set and reports whether it was new.
func (n *ptsNode) add(l Loc) bool {
	if slices.Contains(n.locs, l) {
		return false
	}
	n.locs = append(n.locs, l)
	return true
}

func (r *PointsToResult) copyFrom(dst llvm.Value, src llvm.Value) bool {
	s := r.node(src)
	if s == nil {
		return false
	}
	d := r.node(dst)
	changed := false
	for _, l := range s.locs {
		if d.add(l) {
			changed = true
		}
	}
	if s.unknown && !d.unknown {
		d.unknown = true
		changed = true
	}
	return changed
}

// info returns the root information of root, a pointer parameter or an
// alloca of the function, allocating the table on first use.
func (r *PointsToResult) info(root llvm.Value) *rootInfo {
	if r.roots == nil {
		r.roots = make([]rootInfo, len(r.nodes))
	}
	return &r.roots[r.index(root)]
}

// collectEscapes records, once, the roots whose address flows somewhere
// this analysis cannot track: callee arguments, stored-as-value, integer
// casts, returns, aggregate inserts.
func (r *PointsToResult) collectEscapes() {
	if r.escapesDone {
		return
	}
	r.escapesDone = true
	for _, b := range r.f.Blocks {
		for _, in := range b.Instrs {
			r.collectInstrEscapes(in)
		}
	}
}

func (r *PointsToResult) collectInstrEscapes(in *llvm.Instr) {
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
		n := r.node(a)
		if n == nil {
			continue
		}
		for _, l := range n.locs {
			if root := r.info(l.Root); !root.escaped {
				root.escaped = true
				root.escape = a.Ident() + " " + reason
			}
		}
	}
}

// nameRoots gives the roots, once, deterministic names for Targets' order
// and Describe output.
func (r *PointsToResult) nameRoots() {
	if r.namesDone {
		return
	}
	r.namesDone = true
	for i, p := range r.f.Params {
		if r.index(p) >= 0 {
			r.info(p).name = fmt.Sprintf("%%%s (arg%d)", p.Name, i)
		}
	}
	for _, n := range r.nodes[r.nParams:] {
		if in := n.v.(*llvm.Instr); in.Op == llvm.OpAlloca {
			r.info(in).name = fmt.Sprintf("%%%s (alloca)", in.Name)
		}
	}
}

// rootName returns a root's name, "" for a value that is no root.
func (r *PointsToResult) rootName(root llvm.Value) string {
	if r.index(root) >= 0 {
		return r.info(root).name
	}
	return ""
}

// Targets returns v's location set; ok=false when v is untracked or may
// point anywhere (treat as aliasing everything).
func (r *PointsToResult) Targets(v llvm.Value) ([]Loc, bool) {
	n := r.node(v)
	if n == nil || n.unknown || len(n.locs) == 0 {
		return nil, false
	}
	r.nameRoots()
	out := slices.Clone(n.locs)
	sort.Slice(out, func(i, j int) bool {
		ni, nj := r.rootName(out[i].Root), r.rootName(out[j].Root)
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
	na, nb := r.node(a), r.node(b)
	if na == nil || nb == nil || na.unknown || nb.unknown || len(na.locs) == 0 || len(nb.locs) == 0 {
		return true // unknown pointer: assume the worst
	}
	for _, la := range na.locs {
		if la.Elem != ElemUnknown {
			// A known element meets the same element or the whole root.
			if slices.Contains(nb.locs, la) || slices.Contains(nb.locs, Loc{Root: la.Root, Elem: ElemUnknown}) {
				return true
			}
			continue
		}
		for _, lb := range nb.locs {
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
	r.collectEscapes()
	if r.index(root) >= 0 {
		if info := r.info(root); info.escaped {
			return info.escape, true
		}
	}
	return "", false
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
		name := r.rootName(l.Root)
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
