package interp

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/llvm"
)

// Program is a function compiled for execution, together with the defined
// functions it calls. It is made only of plain values: instructions name
// dense register slots, predicates and memory widths are enums, GEPs are
// offset and stride lists, phis are moves on the edges that feed them, and
// calls name callees by index. Two programs with the same Digest execute
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

// programs holds released programs; Compile fills their storage.
var programs sync.Pool

// Release hands the program's storage to a later Compile. The caller must
// hold the only reference: a released program must not be used again.
func (p *Program) Release() {
	if p != nil {
		programs.Put(p)
	}
}

// digestBufs holds the buffers Digest encodes programs into.
var digestBufs = sync.Pool{New: func() any { return new([]byte) }}

// Digest returns the SHA-256 of what the program executes: the entry ABI
// and, per function, the parameter, slot and tracked-value counts, the
// code, the constants (floats by bit pattern), the GEP strides and the call
// arguments. Every list is length-prefixed, so two programs have the same
// digest exactly when those fields are equal. Names and diagnostics are not
// hashed: they only word an error.
func (p *Program) Digest() [sha256.Size]byte {
	bp := digestBufs.Get().(*[]byte)
	le := binary.LittleEndian
	b := le.AppendUint32((*bp)[:0], uint32(len(p.params)))
	for _, k := range p.params {
		b = append(b, byte(k))
	}
	b = le.AppendUint32(b, uint32(len(p.funcs)))
	for i := range p.funcs {
		f := &p.funcs[i]
		b = le.AppendUint32(b, uint32(f.nparams))
		b = le.AppendUint32(b, uint32(f.nslots))
		b = le.AppendUint32(b, uint32(f.ntracked))
		b = le.AppendUint32(b, uint32(len(f.code)))
		for _, in := range f.code {
			b = append(b, byte(in.op), in.sub)
			b = le.AppendUint32(b, uint32(in.dst))
			b = le.AppendUint32(b, uint32(in.a))
			b = le.AppendUint32(b, uint32(in.b))
			b = le.AppendUint32(b, uint32(in.c))
			b = le.AppendUint64(b, uint64(in.imm))
		}
		b = le.AppendUint32(b, uint32(len(f.consts)))
		for _, c := range f.consts {
			b = le.AppendUint32(b, uint32(c.slot))
			b = le.AppendUint64(b, uint64(c.i))
			b = le.AppendUint64(b, c.f)
		}
		b = le.AppendUint32(b, uint32(len(f.steps)))
		for _, s := range f.steps {
			b = le.AppendUint32(b, uint32(s.slot))
			b = le.AppendUint64(b, uint64(s.stride))
		}
		b = le.AppendUint32(b, uint32(len(f.args)))
		for _, a := range f.args {
			b = le.AppendUint32(b, uint32(a))
		}
	}
	sum := sha256.Sum256(b)
	*bp = b
	digestBufs.Put(bp)
	return sum
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
	opPCmp // icmp on pointers, sub: predicate
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

// icmpPred and fcmpPred resolve a comparison predicate's spelling.
func icmpPred(name string) (uint8, bool) {
	switch name {
	case "eq":
		return predEQ, true
	case "ne":
		return predNE, true
	case "slt":
		return predSLT, true
	case "sle":
		return predSLE, true
	case "sgt":
		return predSGT, true
	case "sge":
		return predSGE, true
	case "ult":
		return predULT, true
	case "ule":
		return predULE, true
	case "ugt":
		return predUGT, true
	case "uge":
		return predUGE, true
	}
	return 0, false
}

func fcmpPred(name string) (uint8, bool) {
	switch name {
	case "oeq":
		return predOEQ, true
	case "one":
		return predONE, true
	case "olt":
		return predOLT, true
	case "ole":
		return predOLE, true
	case "ogt":
		return predOGT, true
	case "oge":
		return predOGE, true
	case "ord":
		return predORD, true
	case "uno":
		return predUNO, true
	}
	return 0, false
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

// reset empties f for a function with the given name and parameter count,
// keeping its storage. Every field is reset: the ones Equal reads and the
// diagnostics alike.
func (f *function) reset(name string, nparams int32) {
	// Diagnostics past the length still reference an old module's values.
	clear(f.errs[:cap(f.errs)])
	clear(f.undef[:cap(f.undef)])
	clear(f.sites[:cap(f.sites)])
	*f = function{
		nparams: nparams, nslots: nparams,
		code: f.code[:0], consts: f.consts[:0], steps: f.steps[:0], args: f.args[:0],
		name: name, errs: f.errs[:0], undef: f.undef[:0], sites: f.sites[:0],
	}
}

// Compile compiles the named function of mod and every defined function it
// calls. Compilation fails only when the function does not exist; an
// instruction the machine cannot execute compiles to one that reports the
// error when it is reached. The program reuses the storage of a released
// one when there is some.
func Compile(mod *llvm.Module, name string) (*Program, error) {
	p, _ := programs.Get().(*Program)
	if p == nil {
		p = new(Program)
	}
	if _, err := p.compile(mod, name, false); err != nil {
		programs.Put(p)
		return nil, err
	}
	return p, nil
}

// compile fills p with the named function of mod and its callees. With
// withSrcs it also returns, per function, the instruction defining each
// slot (for Machine.Observe).
func (p *Program) compile(mod *llvm.Module, name string, withSrcs bool) ([][]*llvm.Instr, error) {
	f := mod.FindFunc(name)
	if f == nil {
		return nil, fmt.Errorf("interp: function @%s not found", name)
	}
	// Every class is written, ParamOther included: it is the zero value, so
	// reused storage would otherwise keep a stale class.
	p.params = p.params[:0]
	for _, prm := range f.Params {
		k := ParamOther
		switch {
		case prm.Ty.IsPtr():
			k = ParamPtr
		case prm.Ty.IsInt():
			k = ParamInt
		case prm.Ty.IsFP():
			k = ParamFloat
		}
		p.params = append(p.params, k)
	}
	fc, _ := compilers.Get().(*funcCompiler)
	if fc == nil {
		fc = &funcCompiler{bidx: map[*llvm.Block]int32{}, slots: map[*llvm.Instr]int32{},
			track: map[llvm.Value]int32{}, consts: map[[2]uint64]int32{},
			mc: modCompiler{index: map[*llvm.Function]int32{}}}
	}
	defer fc.release()
	mc := &fc.mc
	mc.mod = mod
	mc.index[f] = 0
	mc.queue = append(mc.queue, f)
	p.funcs = p.funcs[:0]
	var srcs [][]*llvm.Instr
	for i := 0; i < len(mc.queue); i++ {
		fn := p.nextFunc()
		fc.start(mc.queue[i], fn, withSrcs)
		fc.compile()
		if withSrcs {
			srcs = append(srcs, fc.srcs)
		}
	}
	return srcs, nil
}

// nextFunc appends a function to p, reusing the storage of one a released
// program held in that position.
func (p *Program) nextFunc() *function {
	n := len(p.funcs)
	if n < cap(p.funcs) {
		p.funcs = p.funcs[:n+1]
	} else {
		p.funcs = append(p.funcs, function{})
	}
	return &p.funcs[n]
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

// compilers holds function compilers whose tables the next compile reuses.
var compilers sync.Pool

// funcCompiler compiles the functions of one program, one at a time. Its
// tables are scratch: start resets them for each function, and release
// empties them before pooling so they pin no module.
type funcCompiler struct {
	mc modCompiler
	f  *llvm.Function
	fn *function

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

	blockPC []int32 // empty until the blocks are compiled
	patches []patch
	srcs    []*llvm.Instr
	wantSrc bool
	ops     []int32 // operand slots of the instruction being compiled
	idx     []int32 // index slots of the gep being compiled
	dsts    []int32 // phi moves of the edge being compiled: destinations
	movs    []int32 // and sources

	// dominators' graph: the successors of block b are succ[succOff[b]:
	// succOff[b+1]], likewise its predecessors.
	succ, succOff []int32
	pred, predOff []int32
	cursor        []int32 // next free pred entry per block while filling
	seen          []bool
	post, num     []int32
}

// patch records a branch field to fill with an edge's program counter.
type patch struct {
	pc    int32
	field int // 0: a, 1: b, 2: c
	from  int32
	to    *llvm.Block
}

// start resets the compiler's tables to compile f into fn.
func (fc *funcCompiler) start(f *llvm.Function, fn *function, withSrcs bool) {
	fc.f, fc.fn, fc.wantSrc = f, fn, withSrcs
	fn.reset(f.Name, int32(len(f.Params)))
	clear(fc.bidx)
	clear(fc.slots)
	clear(fc.track)
	clear(fc.consts)
	// Size the tables once: every instruction defines at most one slot and
	// compiles to a handful of program instructions.
	n := len(f.Params)
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	fn.code = slices.Grow(fn.code, n+2*len(f.Blocks))
	fc.defBlk, fc.defIdx = slices.Grow(fc.defBlk[:0], n), slices.Grow(fc.defIdx[:0], n)
	for range f.Params {
		fc.defBlk = append(fc.defBlk, -1)
		fc.defIdx = append(fc.defIdx, -1)
	}
	fc.blockPC = fc.blockPC[:0]
	fc.patches = fc.patches[:0]
	fc.srcs = nil
	if withSrcs {
		// Each function keeps its own list, so it is never reused.
		fc.srcs = make([]*llvm.Instr, fn.nparams)
	}
}

// release empties the compiler's tables of everything that references the
// compiled module and pools it.
func (fc *funcCompiler) release() {
	clear(fc.bidx)
	clear(fc.slots)
	clear(fc.track)
	clear(fc.mc.index)
	clear(fc.mc.queue[:cap(fc.mc.queue)])
	clear(fc.patches[:cap(fc.patches)])
	fc.mc.queue, fc.patches = fc.mc.queue[:0], fc.patches[:0]
	fc.mc.mod, fc.f, fc.fn, fc.srcs = nil, nil, nil, nil
	compilers.Put(fc)
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
	fc.nphi = grow(fc.nphi[:0], len(f.Blocks))
	fc.term = grow(fc.term[:0], len(f.Blocks))
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
	fc.blockPC = grow(fc.blockPC[:0], len(f.Blocks))
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

// succs returns the in-function successors of block b.
func (fc *funcCompiler) succs(b int32) []int32 { return fc.succ[fc.succOff[b]:fc.succOff[b+1]] }

// dfs numbers the blocks reachable from b in postorder.
func (fc *funcCompiler) dfs(b int32) {
	fc.seen[b] = true
	for _, s := range fc.succs(b) {
		if !fc.seen[s] {
			fc.dfs(s)
		}
	}
	fc.post = append(fc.post, b)
}

// dominators computes immediate dominators of the reachable blocks
// (Cooper, Harvey and Kennedy's iterative algorithm over reverse postorder).
func (fc *funcCompiler) dominators() {
	n := len(fc.f.Blocks)
	// Successor lists, flat: in-function targets of each block's terminator.
	fc.succ, fc.succOff = fc.succ[:0], append(fc.succOff[:0], 0)
	for bi, b := range fc.f.Blocks {
		if fc.term[bi] < len(b.Instrs) {
			for _, s := range b.Instrs[fc.term[bi]].Blocks {
				if si, ok := fc.bidx[s]; ok {
					fc.succ = append(fc.succ, si)
				}
			}
		}
		fc.succOff = append(fc.succOff, int32(len(fc.succ)))
	}
	fc.seen = grow(fc.seen[:0], n)
	fc.post = fc.post[:0]
	fc.dfs(0)
	// Postorder numbers order the walk up two dominator chains to their
	// meeting point.
	num := grow(fc.num[:0], n)
	fc.num = num
	for i, b := range fc.post {
		num[b] = int32(i)
	}
	// Predecessor lists, flat, in the order the reachable blocks name them.
	fc.predOff = grow(fc.predOff[:0], n+1)
	for b := 0; b < n; b++ {
		if fc.seen[b] {
			for _, s := range fc.succs(int32(b)) {
				fc.predOff[s+1]++
			}
		}
	}
	for b := 0; b < n; b++ {
		fc.predOff[b+1] += fc.predOff[b]
	}
	fc.pred = grow(fc.pred[:0], int(fc.predOff[n]))
	fc.cursor = append(fc.cursor[:0], fc.predOff[:n]...)
	for b := 0; b < n; b++ {
		if fc.seen[b] {
			for _, s := range fc.succs(int32(b)) {
				fc.pred[fc.cursor[s]] = int32(b)
				fc.cursor[s]++
			}
		}
	}
	fc.idom = grow(fc.idom[:0], n)
	for i := range fc.idom {
		fc.idom[i] = -1
	}
	fc.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := len(fc.post) - 2; i >= 0; i-- { // reverse postorder, entry excluded
			b := fc.post[i]
			nd := int32(-1)
			for _, p := range fc.pred[fc.predOff[b]:fc.predOff[b+1]] {
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
	if k, ok := fc.tracked(v); ok && !fc.defined(v, b, j) {
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

// tracked returns the tracked index of v when its reads may need a
// definedness check.
func (fc *funcCompiler) tracked(v llvm.Value) (int32, bool) {
	if fc.fn.ntracked == 0 {
		return 0, false
	}
	k, ok := fc.track[v]
	return k, ok
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
	if k, ok := fc.tracked(v); ok {
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
	if fc.nphi[ti] == 0 && len(fc.blockPC) > 0 && from >= 0 {
		return fc.blockPC[ti]
	}
	start := fc.pc()
	var pred *llvm.Block
	predEnd := 0
	if from >= 0 {
		pred = fc.f.Blocks[from]
		predEnd = len(pred.Instrs)
	}
	dsts, srcs := fc.dsts[:0], fc.movs[:0]
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
	fc.dsts, fc.movs = dsts, srcs
	// A move whose destination another move still reads goes through a
	// temporary, so every phi sees the values from before the edge.
	overlap := false
	for _, d := range dsts {
		if slices.Contains(srcs, d) {
			overlap = true
		}
	}
	if overlap {
		for i, s := range srcs {
			srcs[i] = fc.newSlot(nil)
			fc.emit(inst{op: opMov, dst: srcs[i], a: s})
		}
	}
	for i, d := range dsts {
		fc.emit(inst{op: opMov, dst: d, a: srcs[i]})
	}
	for _, phi := range to.Instrs[:fc.nphi[ti]] {
		fc.markIfTracked(phi)
	}
	if len(fc.blockPC) == 0 {
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

// shapeOf returns the shape of an executable opcode (the zero shape for
// the rest).
func shapeOf(op llvm.Opcode) opShape {
	integer := func(o opcode) opShape { return opShape{n: 2, isInt: true, intOp: o} }
	float := func(o64, o32 opcode) opShape { return opShape{n: 2, isFlt: true, floatOp: [2]opcode{o64, o32}} }
	switch op {
	case llvm.OpAdd:
		return integer(opAdd)
	case llvm.OpSub:
		return integer(opSub)
	case llvm.OpMul:
		return integer(opMul)
	case llvm.OpSDiv:
		return integer(opSDiv)
	case llvm.OpSRem:
		return integer(opSRem)
	case llvm.OpAnd:
		return integer(opAnd)
	case llvm.OpOr:
		return integer(opOr)
	case llvm.OpXor:
		return integer(opXor)
	case llvm.OpShl:
		return integer(opShl)
	case llvm.OpLShr:
		return integer(opLShr)
	case llvm.OpAShr:
		return integer(opAShr)
	case llvm.OpFAdd:
		return float(opFAdd64, opFAdd32)
	case llvm.OpFSub:
		return float(opFSub64, opFSub32)
	case llvm.OpFMul:
		return float(opFMul64, opFMul32)
	case llvm.OpFDiv:
		return float(opFDiv64, opFDiv32)
	case llvm.OpFNeg, llvm.OpZExt, llvm.OpSExt, llvm.OpTrunc, llvm.OpSIToFP, llvm.OpFPToSI, llvm.OpFPExt,
		llvm.OpFPTrunc, llvm.OpBitcast, llvm.OpIntToPtr, llvm.OpPtrToInt, llvm.OpGEP, llvm.OpLoad:
		return opShape{n: 1}
	case llvm.OpICmp, llvm.OpFCmp, llvm.OpStore:
		return opShape{n: 2}
	case llvm.OpSelect:
		return opShape{n: 3}
	}
	return opShape{}
}

// instr compiles one non-terminator instruction at index j of block bi.
func (fc *funcCompiler) instr(bi int32, j int, in *llvm.Instr) {
	fail := func(format string, args ...any) {
		fc.emitError(fmt.Errorf(format, args...), true, in.Name)
	}
	// Read exactly the operands the instruction evaluates, in order, so an
	// undefined one traps where it did; select and gep read their own.
	sh := shapeOf(in.Op)
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
		p, ok := icmpPred(in.Pred)
		if !ok {
			fail("interp: unsupported icmp predicate %q", in.Pred)
			return
		}
		if t := in.Args[0].Type(); t != nil && t.IsPtr() {
			fc.emitSite(inst{op: opPCmp, sub: p, dst: dst, a: ops[0], b: ops[1]}, in)
			return
		}
		fc.emit(inst{op: opICmp, sub: p, dst: dst, a: ops[0], b: ops[1]})
	case llvm.OpFCmp:
		p, ok := fcmpPred(in.Pred)
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
			if k, ok := fc.tracked(v); ok && !fc.defined(v, bi, j) {
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
	idx := fc.idx[:0]
	for _, v := range in.Args[1:] {
		idx = append(idx, fc.operand(v, bi, j, in))
	}
	fc.idx = idx
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
