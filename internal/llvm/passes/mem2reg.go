// Package passes implements LLVM-level transformations: mem2reg (SSA
// promotion of scalar allocas), SimplifyCFG, dead-code elimination, constant
// folding, and a dominance-scoped CSE. The C-frontend path depends on
// mem2reg to recover SSA form; both flows use the cleanup passes so the
// backend sees comparable IR.
package passes

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// phiSlot is one phi of the semi-pruned placement while pruning decides
// whether it survives. It stands in for the phi as a value and never reaches the
// IR: the final rewrite replaces it with its materialized instruction or
// with the value it folded to.
type phiSlot struct {
	v     int // variable index
	name  int // the _p<n> suffix: join ordinal × variables + v
	block *llvm.Block
	ty    *llvm.Type
	// args holds one incoming per predecessor of block; nil is undef.
	args  []llvm.Value
	repl  llvm.Value  // the value a trivial phi folds to
	instr *llvm.Instr // the phi once something is found to use it
}

func (p *phiSlot) Type() *llvm.Type { return p.ty }
func (p *phiSlot) Ident() string    { return "%" + strconv.Itoa(p.name) }

// resolvePhi follows folded phis to the value that replaces them.
func resolvePhi(x llvm.Value) llvm.Value {
	for {
		p, ok := x.(*phiSlot)
		if !ok || p.repl == nil {
			return x
		}
		x = p.repl
	}
}

func isUndef(x llvm.Value) bool {
	_, ok := x.(*llvm.Undef)
	return x == nil || ok
}

// uniqueIncoming returns the one value among p's incomings other than
// undef and p itself, and whether it skipped an undef; uniq is nil when
// there is no such value or more than one.
func (p *phiSlot) uniqueIncoming() (uniq llvm.Value, sawUndef bool) {
	for _, a := range p.args {
		a = resolvePhi(a)
		switch {
		case a == llvm.Value(p):
		case isUndef(a):
			sawUndef = true
		case uniq == nil:
			uniq = a
		case a != uniq:
			return nil, sawUndef
		}
	}
	return uniq, sawUndef
}

// mem2regTables is Mem2Reg's scratch: slot by instruction number, the
// variables with each one's last storing block and flags and its value
// while a block is renamed, the live-in variables, the joins with their
// ordinals and positions, the phi slots of the semi-pruned placement, the
// slab their incomings are cut from, the live-in variables' environment of
// every block in reverse postorder, and what each promoted load became.
type mem2regTables struct {
	slot      []int32
	vars      []*llvm.Instr
	lastStore []int32
	flags     []uint8
	cur       []llvm.Value
	live      []int
	joinAt    []int
	joins     []*llvm.Block
	ordinals  []int
	slots     []phiSlot
	args      []llvm.Value
	env       []llvm.Value
	sub       []llvm.Value
}

// Variable flags: its address escapes, or some block loads it before
// storing it (it is live into that block, so it needs phis).
const (
	varEscaped uint8 = 1 << iota
	varLiveIn
)

// mem2regScratch holds the tables of finished Mem2Reg runs.
var mem2regScratch sync.Pool

// takeMem2RegTables returns tables whose slot covers n instructions;
// Mem2Reg writes every slot entry before it reads one.
func takeMem2RegTables(n int) *mem2regTables {
	t, _ := mem2regScratch.Get().(*mem2regTables)
	if t == nil {
		t = &mem2regTables{}
	}
	t.slot = slices.Grow(t.slot[:0], n)[:n]
	return t
}

// sizeVars gives the per-variable tables room for nv variables: no store
// seen, no flag set and no value.
func (t *mem2regTables) sizeVars(nv int) {
	t.lastStore = slices.Grow(t.lastStore[:0], nv)[:nv]
	t.flags = slices.Grow(t.flags[:0], nv)[:nv]
	t.cur = slices.Grow(t.cur[:0], nv)[:nv]
	for i := range t.lastStore {
		t.lastStore[i] = -1
	}
	clear(t.flags)
	clear(t.cur)
}

// size gives the phi slots, the incoming slab and the environment their
// lengths. The slab and the environment read nil as undef, so they start
// empty; every phi slot is written before it is read.
func (t *mem2regTables) size(slots, args, env int) {
	t.slots = slices.Grow(t.slots[:0], slots)[:slots]
	t.args = slices.Grow(t.args[:0], args)[:args]
	t.env = slices.Grow(t.env[:0], env)[:env]
	clear(t.args)
	clear(t.env)
}

// release empties the tables of everything that references the function
// and pools them.
func (t *mem2regTables) release() {
	clear(t.vars)
	clear(t.cur)
	clear(t.joins)
	clear(t.slots)
	clear(t.args)
	clear(t.env)
	clear(t.sub)
	t.slot, t.vars, t.cur, t.live, t.joins, t.ordinals, t.slots, t.args, t.env, t.sub = t.slot[:0],
		t.vars[:0], t.cur[:0], t.live[:0], t.joins[:0], t.ordinals[:0], t.slots[:0], t.args[:0], t.env[:0], t.sub[:0]
	mem2regScratch.Put(t)
}

// Mem2Reg promotes scalar allocas whose only uses are loads and stores into
// SSA values. It places a phi at every join for each variable some block
// loads before storing it (semi-pruned insertion; a variable every block
// stores before it loads never reads a phi), renames over reverse
// postorder, then folds trivial phis and drops dead ones. Replaced loads
// and folded phis go into one substitution table that every operand is
// resolved through in a single final rewrite, and each block is compacted
// once, so no step rescans the function per change.
func Mem2Reg(f *llvm.Function) {
	// Number the promotable variables: scalar allocas whose address is only
	// loaded from or stored to. slot holds, by instruction number, an
	// alloca's variable and, once renaming replaces it, a load's entry in
	// sub; -1 otherwise.
	snap := numberInstrs(f)
	defer snap.release()
	instrs := snap.instrs
	t := takeMem2RegTables(len(instrs))
	defer t.release()
	slot, vars := t.slot, t.vars
	for _, in := range instrs {
		slot[in.ID] = -1
		if in.Op == llvm.OpAlloca && !in.SrcElem.IsArray() && !in.SrcElem.IsStruct() {
			slot[in.ID] = int32(len(vars))
			vars = append(vars, in)
		}
	}
	t.vars = vars
	if len(vars) == 0 {
		return
	}
	promoted := func(ptr llvm.Value) (int, bool) {
		al, ok := ptr.(*llvm.Instr)
		if !ok || al.Op != llvm.OpAlloca {
			return 0, false
		}
		j := instrNum(instrs, al)
		if j < 0 || slot[j] < 0 {
			return 0, false
		}
		return int(slot[j]), true
	}
	// Walking the blocks in order, a load reads a value stored in its own
	// block exactly when the variable's last store so far sits there.
	t.sizeVars(len(vars))
	lastStore, flags := t.lastStore, t.flags
	loads := 0
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				v, ok := promoted(a)
				switch {
				case !ok:
				case in.Op == llvm.OpLoad && ai == 0:
					loads++
					if lastStore[v] != int32(bi) {
						flags[v] |= varLiveIn
					}
				case in.Op == llvm.OpStore && ai == 1:
					lastStore[v] = int32(bi)
				default:
					flags[v] |= varEscaped
				}
			}
		}
	}
	kept := vars[:0]
	for v, a := range vars {
		if flags[v]&varEscaped != 0 {
			slot[a.ID] = -1
			continue
		}
		slot[a.ID] = int32(len(kept))
		flags[len(kept)] = flags[v]
		kept = append(kept, a)
	}
	vars = kept
	if len(vars) == 0 {
		return
	}
	nv := len(vars)
	// live lists the live-in variables, whose phi slots and environment
	// columns are numbered by their position in it.
	live := t.live
	for v := range vars {
		if flags[v]&varLiveIn != 0 {
			live = append(live, v)
		}
	}
	t.live = live
	nl := len(live)

	// Semi-pruned placement: one phi per live-in variable at every block
	// with two or more predecessors. Joins are numbered in block order, and
	// the numbering names the phis as if every variable had one, so a phi's
	// name does not depend on which variables are live in. An unreachable
	// join keeps its ordinal but gets no slots: its phis could only merge
	// undefs, and nothing would use them.
	cfg := analysis.NewCFG(f)
	joinAt := slices.Grow(t.joinAt[:0], len(cfg.Order))[:len(cfg.Order)] // RPO position → join index, or -1
	for i := range joinAt {
		joinAt[i] = -1
	}
	joins, ordinals := t.joins, t.ordinals
	nargs := 0
	ordinal := 0
	for _, b := range f.Blocks {
		preds := cfg.Preds(b)
		if len(preds) < 2 {
			continue
		}
		if r := cfg.Index(b); r >= 0 {
			joinAt[r] = len(joins)
			joins = append(joins, b)
			ordinals = append(ordinals, ordinal)
			nargs += len(preds) * nl
		}
		ordinal++
	}
	t.joinAt, t.joins, t.ordinals = joinAt, joins, ordinals
	t.size(len(joins)*nl, nargs, len(cfg.Order)*nl)
	slots, argSlab := t.slots, t.args
	for k, b := range joins {
		n := len(cfg.Preds(b))
		for c, v := range live {
			slots[k*nl+c] = phiSlot{v: v, name: ordinals[k]*nv + v, block: b, ty: vars[v].SrcElem,
				args: argSlab[:n:n]}
			argSlab = argSlab[n:]
		}
	}

	// Rename over reverse postorder. cur holds every variable's value while
	// a block is renamed; the live-in variables' values also start from,
	// and end in, the block's slice of env, so what a block leaves there is
	// its end state. A single-predecessor block inherits its predecessor's
	// end state (back edges only reach joins, which start from their phis).
	// Any other variable is stored in a block before that block loads it,
	// so its value never crosses a block boundary.
	env, cur := t.env, t.cur
	sub := slices.Grow(t.sub, loads) // promoted load → value
	loaded := func(x llvm.Value) llvm.Value {
		if l, ok := x.(*llvm.Instr); ok && l.Op == llvm.OpLoad {
			if j := instrNum(instrs, l); j >= 0 && slot[j] >= 0 {
				return sub[slot[j]]
			}
		}
		return x
	}
	for r, b := range cfg.Order {
		end := env[r*nl : (r+1)*nl]
		switch k := joinAt[r]; {
		case k >= 0:
			for c, v := range live {
				cur[v] = &slots[k*nl+c]
			}
		default:
			var in []llvm.Value
			if preds := cfg.Preds(b); len(preds) == 1 {
				if pr := cfg.Index(preds[0]); pr >= 0 && pr < r {
					in = env[pr*nl : (pr+1)*nl]
				}
			}
			for c, v := range live {
				cur[v] = nil
				if in != nil {
					cur[v] = in[c]
				}
			}
		}
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			switch in.Op {
			case llvm.OpLoad:
				// A load outside the table sits in a block outside f that
				// a branch reaches (IR the verifier rejects): leave it.
				if v, ok := promoted(in.Args[0]); ok && instrNum(instrs, in) >= 0 {
					x := cur[v]
					if x == nil {
						x = &llvm.Undef{Ty: vars[v].SrcElem}
					}
					slot[in.ID] = int32(len(sub))
					sub = append(sub, x)
					in.Parent = nil
					continue
				}
			case llvm.OpStore:
				if v, ok := promoted(in.Args[1]); ok {
					cur[v] = loaded(in.Args[0])
					in.Parent = nil
					continue
				}
			case llvm.OpAlloca:
				if _, ok := promoted(in); ok {
					in.Parent = nil
					continue
				}
			}
			keep = append(keep, in)
		}
		clear(b.Instrs[len(keep):])
		b.Instrs = keep
		for c, v := range live {
			end[c] = cur[v]
		}
	}
	t.sub = sub
	for _, a := range vars {
		if a.Parent != nil { // an alloca in an unreachable block
			a.Parent.Remove(a)
		}
	}
	for k, b := range joins {
		for i, p := range cfg.Preds(b) {
			pr := cfg.Index(p)
			if pr < 0 {
				continue // undef from an unreachable predecessor
			}
			for c := 0; c < nl; c++ {
				slots[k*nl+c].args[i] = env[pr*nl+c]
			}
		}
	}

	// Fold trivial phis, those whose incomings other than undef and the
	// phi itself are one value, sweeping in the order the phis sit in the
	// IR (block order, variables reversed) until nothing folds. Undef may
	// only be ignored when the value strictly dominates the phi's block, as
	// LLVM's phi simplification requires; otherwise a loop-carried
	// uninitialized scalar would fold into a use ahead of its definition.
	var dom *analysis.DomTree
	strictlyDominates := func(x llvm.Value, b *llvm.Block) bool {
		var xb *llvm.Block
		switch x := x.(type) {
		case *phiSlot:
			xb = x.block
		case *llvm.Instr:
			xb = x.Parent
		default:
			return true // parameters and constants dominate everything
		}
		if xb == b {
			return false
		}
		if dom == nil {
			dom = analysis.NewDomTree(cfg)
		}
		return dom.Dominates(xb, b)
	}
	for changed := true; changed; {
		changed = false
		for k := range joins {
			for c := nl - 1; c >= 0; c-- {
				p := &slots[k*nl+c]
				if p.repl != nil {
					continue
				}
				uniq, sawUndef := p.uniqueIncoming()
				if uniq == nil || sawUndef && !strictlyDominates(uniq, p.block) {
					continue
				}
				p.repl = uniq
				changed = true
			}
		}
	}

	// Rewrite every operand through the substitution table. A phi slot an
	// operand resolves to is live: materialize it, then its incomings are
	// uses too. Phis nothing reaches this way are dropped.
	var work []*phiSlot
	use := func(x llvm.Value) llvm.Value {
		x = resolvePhi(loaded(x))
		p, ok := x.(*phiSlot)
		if !ok {
			return x
		}
		if p.instr == nil {
			p.instr = &llvm.Instr{Op: llvm.OpPhi, Ty: p.ty, Parent: p.block,
				Name: vars[p.v].Name + "_p" + strconv.Itoa(p.name)}
			work = append(work, p)
		}
		return p.instr
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if x := use(a); x != a {
					in.Args[i] = x
				}
			}
		}
	}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		in := p.instr
		in.Args = make([]llvm.Value, len(p.args))
		in.Blocks = append([]*llvm.Block(nil), cfg.Preds(p.block)...)
		for i, a := range p.args {
			if a == nil {
				in.Args[i] = &llvm.Undef{Ty: p.ty}
				continue
			}
			in.Args[i] = use(a)
		}
	}
	// Live phis open their block in reverse variable order.
	for k, b := range joins {
		n := 0
		for c := 0; c < nl; c++ {
			if slots[k*nl+c].instr != nil {
				n++
			}
		}
		if n == 0 {
			continue
		}
		m := len(b.Instrs)
		b.Instrs = slices.Grow(b.Instrs, n)[:m+n]
		copy(b.Instrs[n:], b.Instrs[:m])
		i := 0
		for c := nl - 1; c >= 0; c-- {
			if in := slots[k*nl+c].instr; in != nil {
				b.Instrs[i] = in
				i++
			}
		}
	}
}
