package interp

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/llvm"
)

// Program is a function compiled for execution, together with the defined
// functions it calls. It is made only of plain values: instructions name
// dense register slots, predicates and memory widths are enums, GEPs are
// offset and stride lists, phis are moves on the edges that feed them, and
// calls name callees by index. Two programs that compare Equal execute
// identically on identical arguments, so a caller may reuse a verdict
// reached on one for the other.
type Program struct {
	params []ParamKind
	funcs  []function // funcs[0] is the entry function
}

// ParamKind is the entry ABI class of one parameter.
type ParamKind uint8

// Parameter classes.
const (
	ParamOther ParamKind = iota
	ParamInt
	ParamFloat
	ParamPtr
)

// Params returns the entry function's parameter classes — the ABI a caller
// synthesizes arguments for.
func (p *Program) Params() []ParamKind { return p.params }

// Equal reports whether p and q execute identically: the same code, slots,
// constants (floats by bit pattern), GEP strides, call graph and entry ABI.
// Names, attributes and loop metadata never reach a program.
func (p *Program) Equal(q *Program) bool {
	if p == q {
		return true
	}
	if p == nil || q == nil || !slices.Equal(p.params, q.params) || len(p.funcs) != len(q.funcs) {
		return false
	}
	for i := range p.funcs {
		a, b := &p.funcs[i], &q.funcs[i]
		if a.nparams != b.nparams || a.nslots != b.nslots || a.ntracked != b.ntracked ||
			!slices.Equal(a.code, b.code) || !slices.Equal(a.consts, b.consts) ||
			!slices.Equal(a.steps, b.steps) || !slices.Equal(a.args, b.args) {
			return false
		}
	}
	return true
}

type opcode uint8

const (
	opEnter  opcode = iota // charge imm fuel on block entry
	opJmp                  // pc = a
	opCondBr               // pc = b if regs[a].i != 0 else c
	opRet                  // return regs[a] (a < 0: no value)
	opMov                  // regs[dst] = regs[a]
	opMark                 // value tracked as imm is now defined
	opCheck                // trap unless value tracked as imm is defined
	opError                // fail with errs[c]

	opAdd // integer ops: result sign-extended from 64-sub bits
	opSub
	opMul
	opSDiv
	opSRem
	opAnd
	opOr
	opXor
	opShl
	opLShr // source masked with imm first
	opAShr

	opFAdd32
	opFAdd64
	opFSub32
	opFSub64
	opFMul32
	opFMul64
	opFDiv32
	opFDiv64
	opFNeg

	opICmp // sub: predicate
	opFCmp
	opSelect
	opSelectChecked // select with tracked arms, see the runner

	opZExt    // i & imm
	opIntOnly // {i}
	opTrunc   // i sign-extended from 64-sub bits
	opSIToFP32
	opSIToFP64
	opFPToSI
	opFRound32  // {f rounded to float}
	opFloatOnly // {f}

	opAlloca // imm bytes
	opGEP    // base a, steps[b:b+c], constant offset imm
	opLoad   // pointer a, sub: memory kind, imm: access size
	opStore  // value a, pointer b, sub: memory kind, imm: access size

	opCall // funcs[a], argument slots args[b:], result dst
	opSqrt64
	opSqrt32
	opExp64
	opExp32
	opFma64
	opFma32
	opFabs64
	opFabs32
	opMalloc
	opNop
	opMemset // sub: memIntrinsicNames index
	opMemcpy
)

// Memory access kinds.
const (
	memF32 uint8 = iota
	memF64
	memI8
	memI16
	memI32
	memI64
	memPtr // store only: pointers are not persisted in this model
	memBad // unsupported type: checks pass, then errs[c]
)

// Comparison predicates.
const (
	predEQ uint8 = iota
	predNE
	predSLT
	predSLE
	predSGT
	predSGE
	predULT
	predULE
	predUGT
	predUGE
)

const (
	predOEQ uint8 = iota
	predONE
	predOLT
	predOLE
	predOGT
	predOGE
	predORD
	predUNO
)

var icmpPreds = map[string]uint8{
	"eq": predEQ, "ne": predNE, "slt": predSLT, "sle": predSLE, "sgt": predSGT,
	"sge": predSGE, "ult": predULT, "ule": predULE, "ugt": predUGT, "uge": predUGE,
}

var fcmpPreds = map[string]uint8{
	"oeq": predOEQ, "one": predONE, "olt": predOLT, "ole": predOLE, "ogt": predOGT,
	"oge": predOGE, "ord": predORD, "uno": predUNO,
}

// inst is one program instruction.
type inst struct {
	op      opcode
	sub     uint8
	dst     int32
	a, b, c int32
	imm     int64
}

type gepStep struct {
	slot   int32
	stride int64
}

// constSlot is a constant loaded into its slot on function entry; f holds
// the float's bit pattern, so +0.0 and -0.0 differ.
type constSlot struct {
	slot int32
	i    int64
	f    uint64
}

// site names the instruction behind a program counter whose failures the
// runner prefixes with its location.
type site struct {
	pc   int32
	name string
}

// function is one compiled function.
type function struct {
	nparams, nslots int32
	// ntracked counts values whose uses are not all dominated by their
	// definition; only those carry a runtime "defined" flag.
	ntracked int32
	code     []inst // execution starts at pc 0
	consts   []constSlot
	steps    []gepStep
	args     []int32

	// Diagnostics only; never part of program identity.
	name  string
	errs  []error
	undef []string // tracked index → value name
	sites []site
}

// fail prefixes err with the failing instruction's location when the
// instruction is one whose errors carry it.
func (f *function) fail(pc int32, err error) error {
	i, ok := slices.BinarySearchFunc(f.sites, pc, func(s site, pc int32) int { return cmp.Compare(s.pc, pc) })
	if !ok {
		return err
	}
	return fmt.Errorf("in @%s %%%s: %w", f.name, f.sites[i].name, err)
}

// Compile compiles the named function of mod and every defined function it
// calls. Compilation fails only when the function does not exist; an
// instruction the machine cannot execute compiles to one that reports the
// error when it is reached.
func Compile(mod *llvm.Module, name string) (*Program, error) {
	p, _, err := compile(mod, name, false)
	return p, err
}

// compile is Compile that optionally also returns, per function, the
// instruction defining each slot (for Machine.Observe).
func compile(mod *llvm.Module, name string, withSrcs bool) (*Program, [][]*llvm.Instr, error) {
	f := mod.FindFunc(name)
	if f == nil {
		return nil, nil, fmt.Errorf("interp: function @%s not found", name)
	}
	p := &Program{params: make([]ParamKind, len(f.Params))}
	for i, prm := range f.Params {
		switch {
		case prm.Ty.IsPtr():
			p.params[i] = ParamPtr
		case prm.Ty.IsInt():
			p.params[i] = ParamInt
		case prm.Ty.IsFP():
			p.params[i] = ParamFloat
		}
	}
	mc := &modCompiler{mod: mod, index: map[*llvm.Function]int32{f: 0}, queue: []*llvm.Function{f}}
	var srcs [][]*llvm.Instr
	for i := 0; i < len(mc.queue); i++ {
		fc := newFuncCompiler(mc, mc.queue[i], withSrcs)
		fc.compile()
		p.funcs = append(p.funcs, fc.fn)
		srcs = append(srcs, fc.srcs)
	}
	return p, srcs, nil
}

// modCompiler numbers the functions a program calls.
type modCompiler struct {
	mod   *llvm.Module
	index map[*llvm.Function]int32
	queue []*llvm.Function
}

func (mc *modCompiler) funcIndex(f *llvm.Function) int32 {
	if i, ok := mc.index[f]; ok {
		return i
	}
	i := int32(len(mc.queue))
	mc.index[f] = i
	mc.queue = append(mc.queue, f)
	return i
}

// funcCompiler compiles one function.
type funcCompiler struct {
	mc *modCompiler
	f  *llvm.Function
	fn function

	bidx map[*llvm.Block]int32
	nphi []int   // leading phis per block
	term []int   // index of the first terminator per block, or len(Instrs)
	idom []int32 // -1: unreachable

	slots  map[*llvm.Instr]int32 // instruction results (parameters: slotOf)
	defBlk []int32               // per slot: defining block (-1: parameter)
	defIdx []int                 // per slot: index in its block (-1: leading phi)
	track  map[llvm.Value]int32  // tracked values → tracked index
	consts map[[2]uint64]int32
	junk   int32

	blockPC []int32
	patches []patch
	srcs    []*llvm.Instr
	wantSrc bool
	ops     []int32 // operand slots of the instruction being compiled
}

// patch records a branch field to fill with an edge's program counter.
type patch struct {
	pc    int32
	field int // 0: a, 1: b, 2: c
	from  int32
	to    *llvm.Block
}

func newFuncCompiler(mc *modCompiler, f *llvm.Function, withSrcs bool) *funcCompiler {
	// Size the tables once: every instruction defines at most one slot and
	// compiles to a handful of program instructions.
	n := len(f.Params)
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	fc := &funcCompiler{
		mc: mc, f: f,
		bidx:    make(map[*llvm.Block]int32, len(f.Blocks)),
		slots:   make(map[*llvm.Instr]int32, n),
		defBlk:  make([]int32, 0, n),
		defIdx:  make([]int, 0, n),
		consts:  map[[2]uint64]int32{},
		wantSrc: withSrcs,
	}
	fc.fn.code = make([]inst, 0, n+2*len(f.Blocks))
	fc.fn.name = f.Name
	fc.fn.nparams = int32(len(f.Params))
	for range f.Params {
		fc.defBlk = append(fc.defBlk, -1)
		fc.defIdx = append(fc.defIdx, -1)
	}
	fc.fn.nslots = fc.fn.nparams
	if withSrcs {
		fc.srcs = make([]*llvm.Instr, fc.fn.nparams)
	}
	return fc
}

// newSlot allocates a register slot, recording its defining instruction.
func (fc *funcCompiler) newSlot(src *llvm.Instr) int32 {
	s := fc.fn.nslots
	fc.fn.nslots++
	if fc.wantSrc {
		fc.srcs = append(fc.srcs, src)
	}
	return s
}

func (fc *funcCompiler) compile() {
	f := fc.f
	if len(f.Blocks) == 0 {
		fc.emitError(fmt.Errorf("interp: @%s has no body", f.Name), false, "")
		return
	}
	for i, b := range f.Blocks {
		fc.bidx[b] = int32(i)
	}
	fc.nphi = make([]int, len(f.Blocks))
	fc.term = make([]int, len(f.Blocks))
	for bi, b := range f.Blocks {
		for fc.nphi[bi] < len(b.Instrs) && b.Instrs[fc.nphi[bi]].Op == llvm.OpPhi {
			fc.nphi[bi]++
		}
		fc.term[bi] = len(b.Instrs)
		for j := fc.nphi[bi]; j < len(b.Instrs); j++ {
			if b.Instrs[j].IsTerminator() {
				fc.term[bi] = j
				break
			}
		}
		for j, in := range b.Instrs {
			if in.HasResult() {
				fc.slots[in] = fc.newSlot(in)
				fc.defBlk = append(fc.defBlk, int32(bi))
				idx := j
				if j < fc.nphi[bi] {
					idx = -1
				}
				fc.defIdx = append(fc.defIdx, idx)
			}
		}
	}
	fc.junk = fc.newSlot(nil)
	fc.dominators()
	fc.findTracked()

	// Execution starts at pc 0: the entry block, or first the (empty) edge
	// from no predecessor that binds the entry block's phis.
	if fc.nphi[0] > 0 {
		fc.edge(-1, f.Blocks[0])
	}
	fc.blockPC = make([]int32, len(f.Blocks))
	for bi, b := range f.Blocks {
		fc.blockPC[bi] = fc.pc()
		fc.block(int32(bi), b)
	}
	for _, pt := range fc.patches {
		target := fc.edge(pt.from, pt.to)
		in := &fc.fn.code[pt.pc]
		switch pt.field {
		case 0:
			in.a = target
		case 1:
			in.b = target
		default:
			in.c = target
		}
	}
}

// succs returns the in-function successors of block bi.
func (fc *funcCompiler) succs(bi int) []int32 {
	b := fc.f.Blocks[bi]
	if fc.term[bi] >= len(b.Instrs) {
		return nil
	}
	var out []int32
	for _, s := range b.Instrs[fc.term[bi]].Blocks {
		if si, ok := fc.bidx[s]; ok {
			out = append(out, si)
		}
	}
	return out
}

// dominators computes immediate dominators of the reachable blocks
// (Cooper, Harvey and Kennedy's iterative algorithm over reverse postorder).
func (fc *funcCompiler) dominators() {
	n := len(fc.f.Blocks)
	succ := make([][]int32, n)
	for bi := range succ {
		succ[bi] = fc.succs(bi)
	}
	seen := make([]bool, n)
	var post []int32
	var dfs func(b int32)
	dfs = func(b int32) {
		seen[b] = true
		for _, s := range succ[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	// Postorder numbers order the walk up two dominator chains to their
	// meeting point.
	num := make([]int32, n)
	for i, b := range post {
		num[b] = int32(i)
	}
	preds := make([][]int32, n)
	for b := range succ {
		if seen[b] {
			for _, s := range succ[b] {
				preds[s] = append(preds[s], int32(b))
			}
		}
	}
	fc.idom = make([]int32, n)
	for i := range fc.idom {
		fc.idom[i] = -1
	}
	fc.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- { // reverse postorder, entry excluded
			b := post[i]
			nd := int32(-1)
			for _, p := range preds[b] {
				if fc.idom[p] < 0 {
					continue
				}
				if nd < 0 {
					nd = p
					continue
				}
				x, y := p, nd
				for x != y {
					for num[x] < num[y] {
						x = fc.idom[x]
					}
					for num[y] < num[x] {
						y = fc.idom[y]
					}
				}
				nd = x
			}
			if fc.idom[b] != nd {
				fc.idom[b] = nd
				changed = true
			}
		}
	}
}

func (fc *funcCompiler) reachable(b int32) bool { return fc.idom[b] >= 0 }

// dominates reports whether block a dominates reachable block b.
func (fc *funcCompiler) dominates(a, b int32) bool {
	for b != a && b != 0 {
		b = fc.idom[b]
	}
	return b == a
}

// defined reports whether v is certainly defined when read at index j of
// block b (j = len(Instrs) for a read on an edge leaving b). Values that
// are not need a runtime flag.
func (fc *funcCompiler) defined(v llvm.Value, b int32, j int) bool {
	switch v.(type) {
	case *llvm.ConstInt, *llvm.ConstFloat, *llvm.Undef:
		return true
	}
	s, ok := fc.slotOf(v)
	if !ok {
		return false
	}
	if !fc.reachable(b) {
		return true // never executes
	}
	d, i := fc.defBlk[s], fc.defIdx[s]
	if d < 0 {
		return true // parameter
	}
	if !fc.reachable(d) || i > fc.term[d] {
		return false // the definition never executes
	}
	if d == b {
		return i < j
	}
	return fc.dominates(d, b)
}

// findTracked collects the values some read of which may precede their
// definition; their definitions set a flag their unsafe reads check.
func (fc *funcCompiler) findTracked() {
	note := func(v llvm.Value, b int32, j int) {
		if fc.defined(v, b, j) {
			return
		}
		if fc.track == nil {
			fc.track = map[llvm.Value]int32{}
		}
		if _, ok := fc.track[v]; !ok {
			fc.track[v] = fc.fn.ntracked
			fc.fn.ntracked++
			fc.fn.undef = append(fc.fn.undef, v.Ident())
		}
	}
	for bi, b := range fc.f.Blocks {
		for j, in := range b.Instrs {
			if j > fc.term[bi] {
				break
			}
			if j < fc.nphi[bi] {
				for k, v := range in.Args {
					switch {
					case k >= len(in.Blocks):
					case in.Blocks[k] == nil && bi == 0:
						note(v, 0, -1) // the entry edge
					default:
						if p, ok := fc.bidx[in.Blocks[k]]; ok {
							note(v, p, len(fc.f.Blocks[p].Instrs))
						}
					}
				}
				continue
			}
			for _, v := range in.Args {
				note(v, int32(bi), j)
			}
		}
	}
}

func (fc *funcCompiler) pc() int32 { return int32(len(fc.fn.code)) }

func (fc *funcCompiler) emit(in inst) int32 {
	fc.fn.code = append(fc.fn.code, in)
	return fc.pc() - 1
}

// emitSite emits an instruction whose failures name in.
func (fc *funcCompiler) emitSite(x inst, in *llvm.Instr) int32 {
	pc := fc.emit(x)
	fc.fn.sites = append(fc.fn.sites, site{pc, in.Name})
	return pc
}

// emitError emits an instruction that fails with err when reached.
func (fc *funcCompiler) emitError(err error, wrap bool, name string) int32 {
	fc.fn.errs = append(fc.fn.errs, err)
	pc := fc.emit(inst{op: opError, dst: -1, c: int32(len(fc.fn.errs) - 1)})
	if wrap {
		fc.fn.sites = append(fc.fn.sites, site{pc, name})
	}
	return pc
}

// operand returns the slot holding v for a read at (b, j), first emitting
// a definedness check when the read may precede the definition. in, when
// non-nil, is the instruction whose failures the check names.
func (fc *funcCompiler) operand(v llvm.Value, b int32, j int, in *llvm.Instr) int32 {
	if k, ok := fc.track[v]; ok && !fc.defined(v, b, j) {
		x := inst{op: opCheck, dst: -1, imm: int64(k)}
		if in != nil {
			fc.emitSite(x, in)
		} else {
			fc.emit(x)
		}
		if s, ok := fc.slotOf(v); ok {
			return s
		}
		return fc.junk
	}
	return fc.value(v)
}

// slotOf returns the slot of a parameter or instruction result of this
// function.
func (fc *funcCompiler) slotOf(v llvm.Value) (int32, bool) {
	switch x := v.(type) {
	case *llvm.Instr:
		s, ok := fc.slots[x]
		return s, ok
	case *llvm.Param:
		for i, p := range fc.f.Params {
			if p == x {
				return int32(i), true
			}
		}
	}
	return 0, false
}

// value returns v's slot without any check.
func (fc *funcCompiler) value(v llvm.Value) int32 {
	var key [2]uint64
	switch c := v.(type) {
	case *llvm.ConstInt:
		key = [2]uint64{uint64(c.Val), 0}
	case *llvm.ConstFloat:
		key = [2]uint64{0, math.Float64bits(c.Val)}
	case *llvm.Undef:
	default:
		if s, ok := fc.slotOf(v); ok {
			return s
		}
		return fc.junk
	}
	if s, ok := fc.consts[key]; ok {
		return s
	}
	s := fc.newSlot(nil)
	fc.consts[key] = s
	fc.fn.consts = append(fc.fn.consts, constSlot{slot: s, i: int64(key[0]), f: key[1]})
	return s
}

// constVal returns the integer a constant operand evaluates to.
func constVal(v llvm.Value) (int64, bool) {
	switch c := v.(type) {
	case *llvm.ConstInt:
		return c.Val, true
	case *llvm.ConstFloat, *llvm.Undef:
		return 0, true
	}
	return 0, false
}

// result returns the slot an instruction's value goes to (the junk slot
// when it defines none).
func (fc *funcCompiler) result(in *llvm.Instr) int32 {
	if s, ok := fc.slots[in]; ok {
		return s
	}
	return fc.junk
}

// markIfTracked emits the flag update a tracked value's definition needs.
func (fc *funcCompiler) markIfTracked(v llvm.Value) {
	if k, ok := fc.track[v]; ok {
		fc.emit(inst{op: opMark, dst: -1, imm: int64(k)})
	}
}

// block compiles one basic block: the fuel charge for its instructions
// (phis excluded: they are edge moves), then each instruction up to the
// first terminator.
func (fc *funcCompiler) block(bi int32, b *llvm.Block) {
	first := fc.nphi[bi]
	last := fc.term[bi]
	charge := last - first + 1
	if last == len(b.Instrs) {
		charge = last - first
	}
	fc.emit(inst{op: opEnter, dst: -1, imm: int64(charge)})
	for j := first; j < len(b.Instrs) && j <= last; j++ {
		in := b.Instrs[j]
		if in.IsTerminator() {
			fc.terminator(bi, j, in)
			return
		}
		fc.instr(bi, j, in)
		fc.markIfTracked(in)
	}
	fc.emitError(trapf(TrapUnreachable, "fell off the end of %%%s in @%s", b.Name, fc.f.Name), false, "")
}

// jumpTo records that field of the branch at pc must hold the edge bi→to.
func (fc *funcCompiler) jumpTo(pc int32, field int, bi int32, to *llvm.Block) {
	fc.patches = append(fc.patches, patch{pc: pc, field: field, from: bi, to: to})
}

func (fc *funcCompiler) terminator(bi int32, j int, in *llvm.Instr) {
	switch in.Op {
	case llvm.OpBr:
		if len(in.Blocks) < 1 {
			fc.emitError(fmt.Errorf("interp: br without a target"), false, "")
			return
		}
		fc.jumpTo(fc.emit(inst{op: opJmp, dst: -1}), 0, bi, in.Blocks[0])
	case llvm.OpCondBr:
		if len(in.Args) < 1 || len(in.Blocks) < 2 {
			fc.emitError(fmt.Errorf("interp: conditional br without a condition and two targets"), false, "")
			return
		}
		c := fc.operand(in.Args[0], bi, j, nil)
		pc := fc.emit(inst{op: opCondBr, dst: -1, a: c})
		fc.jumpTo(pc, 1, bi, in.Blocks[0])
		fc.jumpTo(pc, 2, bi, in.Blocks[1])
	case llvm.OpRet:
		if len(in.Args) == 0 {
			fc.emit(inst{op: opRet, dst: -1, a: -1})
			return
		}
		fc.emit(inst{op: opRet, dst: -1, a: fc.operand(in.Args[0], bi, j, nil)})
	default: // llvm.OpUnreachable
		fc.emitError(trapf(TrapUnreachable, "reached unreachable in @%s", fc.f.Name), false, "")
	}
}

// edge compiles the control transfer from block from (-1: function entry)
// into to: the parallel moves that bind to's phis, then a jump. It returns
// the program counter to branch to.
func (fc *funcCompiler) edge(from int32, to *llvm.Block) int32 {
	ti, ok := fc.bidx[to]
	if !ok {
		if to == nil {
			return fc.emitError(fmt.Errorf("interp: fell off block"), false, "")
		}
		return fc.emitError(fmt.Errorf("interp: branch to %%%s outside @%s", to.Name, fc.f.Name), false, "")
	}
	if fc.nphi[ti] == 0 && fc.blockPC != nil && from >= 0 {
		return fc.blockPC[ti]
	}
	start := fc.pc()
	var pred *llvm.Block
	predEnd := 0
	if from >= 0 {
		pred = fc.f.Blocks[from]
		predEnd = len(pred.Instrs)
	}
	var dsts, srcs []int32
	for _, phi := range to.Instrs[:fc.nphi[ti]] {
		k := slices.Index(phi.Blocks, pred)
		if k < 0 || k >= len(phi.Args) {
			name := "<nil>"
			if pred != nil {
				name = pred.Name
			}
			fc.emitError(fmt.Errorf("interp: phi in %%%s has no incoming for %%%s", to.Name, name), false, "")
			return start
		}
		// The entry edge reads at the very start of the entry block.
		b, j := from, predEnd
		if from < 0 {
			b, j = 0, -1
		}
		srcs = append(srcs, fc.operand(phi.Args[k], b, j, nil))
		dsts = append(dsts, fc.result(phi))
	}
	// A move whose destination another move still reads goes through a
	// temporary, so every phi sees the values from before the edge.
	overlap := false
	for _, d := range dsts {
		if slices.Contains(srcs, d) {
			overlap = true
		}
	}
	if overlap {
		tmps := make([]int32, len(srcs))
		for i, s := range srcs {
			tmps[i] = fc.newSlot(nil)
			fc.emit(inst{op: opMov, dst: tmps[i], a: s})
		}
		srcs = tmps
	}
	for i, d := range dsts {
		fc.emit(inst{op: opMov, dst: d, a: srcs[i]})
	}
	for _, phi := range to.Instrs[:fc.nphi[ti]] {
		fc.markIfTracked(phi)
	}
	if fc.blockPC == nil {
		// The entry edge is compiled before the blocks: it falls through.
		return start
	}
	fc.emit(inst{op: opJmp, dst: -1, a: fc.blockPC[ti]})
	return start
}

// memKind classifies a load/store type.
func memKind(t *llvm.Type, store bool) uint8 {
	switch {
	case t.Kind == llvm.KindFloat:
		return memF32
	case t.Kind == llvm.KindDouble:
		return memF64
	case t.IsInt():
		switch t.SizeBytes() {
		case 1:
			return memI8
		case 2:
			return memI16
		case 4:
			return memI32
		}
		return memI64
	case store && t.IsPtr():
		return memPtr
	}
	return memBad
}

// truncShift is the shift that sign-extends a result from t's width (0 for
// 64-bit and non-integer types).
func truncShift(t *llvm.Type) uint8 {
	if t == nil || !t.IsInt() || t.Bits >= 64 {
		return 0
	}
	return uint8(64 - t.Bits)
}

// lowMask keeps the low bits of t's width (all bits for 64-bit and
// non-integer types).
func lowMask(t *llvm.Type) int64 {
	if t == nil || !t.IsInt() || t.Bits >= 64 {
		return -1
	}
	return int64(uint64(1)<<uint(t.Bits) - 1)
}

func isF32(t *llvm.Type) bool { return t != nil && t.Kind == llvm.KindFloat }

// opShape is how an executable LLVM opcode compiles: the operands it reads
// and, for binary arithmetic, its program opcode (integer, or float as
// double then float).
type opShape struct {
	n            int
	intOp        opcode
	floatOp      [2]opcode
	isInt, isFlt bool
}

var shapes = map[llvm.Opcode]opShape{
	llvm.OpAdd: {n: 2, isInt: true, intOp: opAdd}, llvm.OpSub: {n: 2, isInt: true, intOp: opSub},
	llvm.OpMul: {n: 2, isInt: true, intOp: opMul}, llvm.OpSDiv: {n: 2, isInt: true, intOp: opSDiv},
	llvm.OpSRem: {n: 2, isInt: true, intOp: opSRem}, llvm.OpAnd: {n: 2, isInt: true, intOp: opAnd},
	llvm.OpOr: {n: 2, isInt: true, intOp: opOr}, llvm.OpXor: {n: 2, isInt: true, intOp: opXor},
	llvm.OpShl: {n: 2, isInt: true, intOp: opShl}, llvm.OpLShr: {n: 2, isInt: true, intOp: opLShr},
	llvm.OpAShr: {n: 2, isInt: true, intOp: opAShr},
	llvm.OpFAdd: {n: 2, isFlt: true, floatOp: [2]opcode{opFAdd64, opFAdd32}},
	llvm.OpFSub: {n: 2, isFlt: true, floatOp: [2]opcode{opFSub64, opFSub32}},
	llvm.OpFMul: {n: 2, isFlt: true, floatOp: [2]opcode{opFMul64, opFMul32}},
	llvm.OpFDiv: {n: 2, isFlt: true, floatOp: [2]opcode{opFDiv64, opFDiv32}},
	llvm.OpFNeg: {n: 1}, llvm.OpICmp: {n: 2}, llvm.OpFCmp: {n: 2}, llvm.OpSelect: {n: 3}, llvm.OpZExt: {n: 1},
	llvm.OpSExt: {n: 1}, llvm.OpTrunc: {n: 1}, llvm.OpSIToFP: {n: 1}, llvm.OpFPToSI: {n: 1}, llvm.OpFPExt: {n: 1},
	llvm.OpFPTrunc: {n: 1}, llvm.OpBitcast: {n: 1}, llvm.OpIntToPtr: {n: 1}, llvm.OpPtrToInt: {n: 1},
	llvm.OpGEP: {n: 1}, llvm.OpLoad: {n: 1}, llvm.OpStore: {n: 2},
}

// instr compiles one non-terminator instruction at index j of block bi.
func (fc *funcCompiler) instr(bi int32, j int, in *llvm.Instr) {
	fail := func(format string, args ...any) {
		fc.emitError(fmt.Errorf(format, args...), true, in.Name)
	}
	// Read exactly the operands the instruction evaluates, in order, so an
	// undefined one traps where it did; select and gep read their own.
	sh := shapes[in.Op]
	n := sh.n
	if len(in.Args) < n {
		fail("%s takes %d operands, has %d", in.Op, n, len(in.Args))
		return
	}
	switch in.Op {
	case llvm.OpSelect, llvm.OpGEP:
		n = 0
	case llvm.OpCall:
		n = len(in.Args)
	}
	ops := fc.ops[:0]
	for _, v := range in.Args[:n] {
		ops = append(ops, fc.operand(v, bi, j, in))
	}
	fc.ops = ops
	dst := fc.result(in)
	if sh.isInt {
		x := inst{op: sh.intOp, sub: truncShift(in.Ty), dst: dst, a: ops[0], b: ops[1]}
		if x.op == opLShr {
			x.imm = lowMask(in.Ty)
		}
		if x.op == opSDiv || x.op == opSRem {
			fc.emitSite(x, in)
		} else {
			fc.emit(x)
		}
		return
	}
	if sh.isFlt {
		op := sh.floatOp[0]
		if isF32(in.Ty) {
			op = sh.floatOp[1]
		}
		fc.emit(inst{op: op, dst: dst, a: ops[0], b: ops[1]})
		return
	}
	unary := func(op opcode) { fc.emit(inst{op: op, dst: dst, a: ops[0]}) }
	switch in.Op {
	case llvm.OpFNeg:
		unary(opFNeg)
	case llvm.OpICmp:
		p, ok := icmpPreds[in.Pred]
		if !ok {
			fail("interp: unsupported icmp predicate %q", in.Pred)
			return
		}
		fc.emit(inst{op: opICmp, sub: p, dst: dst, a: ops[0], b: ops[1]})
	case llvm.OpFCmp:
		p, ok := fcmpPreds[in.Pred]
		if !ok {
			fail("interp: unsupported fcmp predicate %q", in.Pred)
			return
		}
		fc.emit(inst{op: opFCmp, sub: p, dst: dst, a: ops[0], b: ops[1]})
	case llvm.OpSelect:
		c := fc.operand(in.Args[0], bi, j, in)
		x := inst{op: opSelect, dst: dst, a: c, b: fc.value(in.Args[1]), c: fc.value(in.Args[2])}
		for arm, shift := range [2]int64{32, 0} {
			v := in.Args[1+arm]
			if k, ok := fc.track[v]; ok && !fc.defined(v, bi, j) {
				x.op = opSelectChecked
				x.imm |= (int64(k) + 1) << shift
			}
		}
		if x.op == opSelectChecked {
			fc.emitSite(x, in)
		} else {
			fc.emit(x)
		}
	case llvm.OpZExt:
		fc.emit(inst{op: opZExt, dst: dst, a: ops[0], imm: lowMask(in.Args[0].Type())})
	case llvm.OpSExt:
		unary(opIntOnly)
	case llvm.OpTrunc:
		fc.emit(inst{op: opTrunc, sub: truncShift(in.Ty), dst: dst, a: ops[0]})
	case llvm.OpSIToFP:
		if isF32(in.Ty) {
			unary(opSIToFP32)
		} else {
			unary(opSIToFP64)
		}
	case llvm.OpFPToSI:
		unary(opFPToSI)
	case llvm.OpFPTrunc:
		if isF32(in.Ty) {
			unary(opFRound32)
		} else {
			unary(opFloatOnly)
		}
	case llvm.OpFPExt, llvm.OpBitcast, llvm.OpIntToPtr, llvm.OpPtrToInt:
		unary(opMov)
	case llvm.OpAlloca:
		if in.SrcElem == nil {
			fail("alloca without an allocated type")
			return
		}
		fc.emit(inst{op: opAlloca, dst: dst, imm: in.SrcElem.SizeBytes()})
	case llvm.OpGEP:
		fc.gep(bi, j, in, dst)
	case llvm.OpLoad:
		if in.SrcElem == nil {
			fail("load without a memory type")
			return
		}
		x := inst{op: opLoad, sub: memKind(in.SrcElem, false), dst: dst, a: ops[0], imm: in.SrcElem.SizeBytes()}
		if x.sub == memBad {
			fc.fn.errs = append(fc.fn.errs, fmt.Errorf("load of unsupported type %s", in.SrcElem))
			x.c = int32(len(fc.fn.errs) - 1)
		}
		fc.emitSite(x, in)
	case llvm.OpStore:
		t := in.Args[0].Type()
		if t == nil {
			fail("store of an untyped value")
			return
		}
		x := inst{op: opStore, sub: memKind(t, true), dst: -1, a: ops[0], b: ops[1], imm: t.SizeBytes()}
		switch x.sub {
		case memPtr:
			fc.fn.errs = append(fc.fn.errs, fmt.Errorf("storing pointers to memory is unsupported"))
			x.c = int32(len(fc.fn.errs) - 1)
		case memBad:
			fc.fn.errs = append(fc.fn.errs, fmt.Errorf("store of unsupported type %s", t))
			x.c = int32(len(fc.fn.errs) - 1)
		}
		fc.emitSite(x, in)
	case llvm.OpCall:
		fc.call(in, ops, dst)
	case llvm.OpExtractValue:
		// Aggregates are modeled as pointers here; extractvalue appears only
		// in descriptor manipulation which the flows do not execute.
		fail("extractvalue is not executable in this model")
	case llvm.OpPhi:
		fail("phi executed out of order")
	default:
		fail("unsupported opcode %s", in.Op)
	}
}

// gep compiles a getelementptr into a constant offset plus one scaled
// step per non-constant index.
func (fc *funcCompiler) gep(bi int32, j int, in *llvm.Instr, dst int32) {
	base := fc.operand(in.Args[0], bi, j, in)
	var idx []int32
	for _, v := range in.Args[1:] {
		idx = append(idx, fc.operand(v, bi, j, in))
	}
	x := inst{op: opGEP, dst: dst, a: base, b: int32(len(fc.fn.steps))}
	t := in.SrcElem
	for k, v := range in.Args[1:] {
		var stride int64
		switch {
		case t == nil:
			fc.emitError(fmt.Errorf("gep without a source element type"), true, in.Name)
			return
		case k == 0:
			stride = t.SizeBytes()
		case t.IsArray():
			t = t.Elem
			stride = t.SizeBytes()
		case t.IsStruct():
			fi, ok := constVal(v)
			if !ok || fi < 0 || fi >= int64(len(t.Fields)) {
				fc.emitError(fmt.Errorf("gep struct index is not a constant field number"), true, in.Name)
				return
			}
			for _, ft := range t.Fields[:fi] {
				x.imm += ft.SizeBytes()
			}
			t = t.Fields[fi]
			continue
		default:
			// The base is still checked first, as a nil base traps.
			fc.emitSite(inst{op: opGEP, dst: fc.junk, a: base, b: int32(len(fc.fn.steps))}, in)
			fc.emitError(fmt.Errorf("gep steps through scalar type"), true, in.Name)
			return
		}
		if c, ok := constVal(v); ok {
			x.imm += c * stride
			continue
		}
		fc.fn.steps = append(fc.fn.steps, gepStep{slot: idx[k], stride: stride})
		x.c++
	}
	fc.emitSite(x, in)
}

// call compiles a call: a math or memory intrinsic becomes its own opcode,
// a defined function a call into the program.
func (fc *funcCompiler) call(in *llvm.Instr, ops []int32, dst int32) {
	intrinsic := func(op opcode, n int, sub uint8) {
		if len(ops) < n {
			fc.emitError(fmt.Errorf("call to @%s takes %d arguments, has %d", in.Callee, n, len(ops)), true, in.Name)
			return
		}
		x := inst{op: op, sub: sub, dst: dst}
		for k, s := range ops[:n] {
			switch k {
			case 0:
				x.a = s
			case 1:
				x.b = s
			default:
				x.c = s
			}
		}
		fc.emitSite(x, in)
	}
	switch in.Callee {
	case "llvm.sqrt.f64", "sqrt":
		intrinsic(opSqrt64, 1, 0)
	case "llvm.sqrt.f32", "sqrtf":
		intrinsic(opSqrt32, 1, 0)
	case "llvm.exp.f64", "exp":
		intrinsic(opExp64, 1, 0)
	case "llvm.exp.f32", "expf":
		intrinsic(opExp32, 1, 0)
	case "llvm.fmuladd.f64", "fma":
		intrinsic(opFma64, 3, 0)
	case "llvm.fmuladd.f32", "fmaf":
		intrinsic(opFma32, 3, 0)
	case "llvm.fabs.f64", "fabs":
		intrinsic(opFabs64, 1, 0)
	case "llvm.fabs.f32", "fabsf":
		intrinsic(opFabs32, 1, 0)
	case "malloc":
		intrinsic(opMalloc, 1, 0)
	case "free", "llvm.lifetime.start.p0", "llvm.lifetime.end.p0":
		if dst != fc.junk {
			fc.emit(inst{op: opNop, dst: dst})
		}
	case "llvm.memset.p0.i64":
		intrinsic(opMemset, 3, 0)
	case "memset":
		intrinsic(opMemset, 3, 1)
	case "llvm.memcpy.p0.p0.i64":
		intrinsic(opMemcpy, 3, 2)
	case "memcpy":
		intrinsic(opMemcpy, 3, 3)
	default:
		callee := fc.mc.mod.FindFunc(in.Callee)
		if callee == nil || callee.IsDecl {
			fc.emitError(fmt.Errorf("call to unknown function @%s", in.Callee), true, in.Name)
			return
		}
		if len(ops) < len(callee.Params) {
			fc.emitError(fmt.Errorf("call to @%s passes %d arguments for %d parameters", in.Callee, len(ops), len(callee.Params)), true, in.Name)
			return
		}
		x := inst{op: opCall, dst: dst, a: fc.mc.funcIndex(callee), b: int32(len(fc.fn.args))}
		fc.fn.args = append(fc.fn.args, ops...)
		fc.emitSite(x, in)
	}
}
