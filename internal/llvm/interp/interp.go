// Package interp executes llvm.Module functions on a byte-addressable memory
// model. Both HLS flows' final IR is run through it and compared against the
// Go reference implementations, standing in for RTL co-simulation.
//
// Execution is compile-then-run: Compile turns a function and its defined
// callees into a Program of plain values (dense SSA slots, resolved widths,
// GEP strides, phi moves per edge), which then runs over a register slice
// with no map lookups and no per-instruction allocation. Registers hold no
// Go pointers: a pointer is an index into the run's allocation table plus
// a byte offset.
package interp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/llvm"
)

// ErrFuel is returned when execution exhausts the machine's instruction
// budget — the typed form the differential oracle relies on so a
// miscompiled infinite loop surfaces as a diagnosable failure instead of a
// hang. Detect it with errors.Is.
var ErrFuel = errors.New("interp: out of fuel")

// TrapKind classifies a typed runtime trap.
type TrapKind string

// Trap kinds. Every fault a compiled LLVM or MLIR program can hit at
// runtime maps to one of these, so the oracle can distinguish "the
// rewritten IR crashed" from "the oracle itself cannot model this IR".
const (
	TrapOOB         TrapKind = "out-of-bounds"
	TrapDivZero     TrapKind = "division-by-zero"
	TrapNilPtr      TrapKind = "nil-pointer"
	TrapUnreachable TrapKind = "unreachable"
	TrapCallDepth   TrapKind = "call-depth"
	TrapUndef       TrapKind = "undefined-value"
	TrapLoopStep    TrapKind = "non-positive-step"
)

// Trap is a typed runtime fault: the executed IR performed an operation
// with no defined result (out-of-bounds access, division by zero, reaching
// unreachable). Extract it from an error chain with AsTrap.
type Trap struct {
	Kind   TrapKind
	Detail string
}

// Error implements error.
func (t *Trap) Error() string { return fmt.Sprintf("interp: %s: %s", t.Kind, t.Detail) }

// AsTrap extracts a typed trap from an error chain.
func AsTrap(err error) (*Trap, bool) {
	var t *Trap
	ok := errors.As(err, &t)
	return t, ok
}

func trapf(kind TrapKind, format string, args ...any) error {
	return &Trap{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// MaxMemBytes is one execution's memory budget: its argument memory and
// every alloca, malloc and memref.alloc it runs take at most this many
// bytes together. The largest polybench kernel's arguments take 5,088 B at
// SMALL (k3mm).
const MaxMemBytes = 16 << 20

// ErrMemLimit is the error of an allocation past MaxMemBytes, or of one
// whose size is negative or overflows. It is not a Trap: a program that
// asks for more memory than an execution may hold is one the oracle cannot
// run, which says nothing about whether a pass changed its meaning.
var ErrMemLimit = errors.New("memory budget exceeded")

// MemBudget meters one execution's memory against MaxMemBytes.
type MemBudget struct{ used int64 }

// Take reserves n bytes for the allocation what names before it is made;
// a negative n stands for a size that is negative or overflows int64.
func (b *MemBudget) Take(n int64, what string) error {
	if n >= 0 && n <= MaxMemBytes-b.used {
		b.used += n
		return nil
	}
	if n < 0 {
		return fmt.Errorf("interp: %s size is negative or overflows: %w", what, ErrMemLimit)
	}
	return fmt.Errorf("interp: %s of %d bytes with %d in use: %w (%d bytes)", what, n, b.used, ErrMemLimit, MaxMemBytes)
}

// Mem is one allocation.
type Mem struct {
	Bytes []byte
}

// NewMem allocates n zeroed bytes.
func NewMem(n int64) *Mem { return &Mem{Bytes: make([]byte, n)} }

// Float64Slice interprets the memory as float64s.
func (m *Mem) Float64Slice() []float64 {
	out := make([]float64, len(m.Bytes)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(m.Bytes[i*8:]))
	}
	return out
}

// SetFloat64 stores v at element index i.
func (m *Mem) SetFloat64(i int, v float64) {
	binary.LittleEndian.PutUint64(m.Bytes[i*8:], math.Float64bits(v))
}

// Float32Slice interprets the memory as float32s.
func (m *Mem) Float32Slice() []float32 {
	out := make([]float32, len(m.Bytes)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(m.Bytes[i*4:]))
	}
	return out
}

// SetFloat32 stores v at element index i.
func (m *Mem) SetFloat32(i int, v float32) {
	binary.LittleEndian.PutUint32(m.Bytes[i*4:], math.Float32bits(v))
}

// Int32Slice interprets the memory as int32s.
func (m *Mem) Int32Slice() []int32 {
	out := make([]int32, len(m.Bytes)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(m.Bytes[i*4:]))
	}
	return out
}

// SetInt32 stores v at element index i.
func (m *Mem) SetInt32(i int, v int32) {
	binary.LittleEndian.PutUint32(m.Bytes[i*4:], uint32(v))
}

// val is a runtime value. A pointer is mem, an index into the run's
// allocation table (0: null), plus a byte offset. A value holds no Go
// pointer, so writing a register needs no GC write barrier.
type val struct {
	i   int64
	f   float64
	off int64
	mem int32
}

// Arg is a function-call argument.
type Arg struct {
	v   val
	mem *Mem // a pointer argument's allocation, entered into the table by the run
}

// IntArg passes an integer.
func IntArg(x int64) Arg { return Arg{v: val{i: x}} }

// FloatArg passes a float/double.
func FloatArg(x float64) Arg { return Arg{v: val{f: x}} }

// PtrArg passes a pointer to offset off within m.
func PtrArg(m *Mem, off int64) Arg { return Arg{v: val{off: off}, mem: m} }

// DefaultFuel is a new machine's instruction budget.
const DefaultFuel = 500_000_000

// Machine executes functions of one module.
type Machine struct {
	Mod *llvm.Module
	// Fuel bounds the executed instruction count (DefaultFuel). Run
	// leaves the unspent budget here.
	Fuel int64

	// Observe, when non-nil, is called with every instruction result the
	// machine assigns, including phis (the integer representation value;
	// float results report 0). Property tests hook it to compare dynamic
	// values against static analysis claims.
	Observe func(in *llvm.Instr, v int64)
}

// NewMachine returns a machine for mod.
func NewMachine(mod *llvm.Module) *Machine {
	return &Machine{Mod: mod, Fuel: DefaultFuel}
}

// Run compiles the named function and executes it. The returned value is
// meaningful only for non-void functions (i or f depending on the return
// type). ctx is polled cooperatively at block entries, so a cancelled or
// timed-out caller reclaims the machine within a bounded number of steps
// rather than after the run.
func (mc *Machine) Run(ctx context.Context, name string, args ...Arg) (int64, float64, error) {
	p := new(Program)
	srcs, err := p.compile(mc.Mod, name, mc.Observe != nil)
	if err != nil {
		return 0, 0, err
	}
	r := &runner{p: p, fuel: NewMeter(ctx, mc.Fuel, ErrFuel)}
	if mc.Observe != nil {
		r.obs, r.srcs = mc.Observe, srcs
	}
	i, f, err := r.run(args)
	mc.Fuel = r.fuel.Left()
	return i, f, err
}

// Run executes the compiled program on args under a fuel budget; ctx (nil
// for none) is polled at block entries.
func (p *Program) Run(ctx context.Context, fuel int64, args ...Arg) (int64, float64, error) {
	r := &runner{p: p, fuel: NewMeter(ctx, fuel, ErrFuel)}
	return r.run(args)
}

// fuelQuantum is how many steps run between context polls.
const fuelQuantum = 1 << 16

// Meter meters a run's fuel. The budget is handed to the run loop in
// quanta and each refill polls the context, so a done context stops the
// run within one quantum at no per-step cost.
type Meter struct {
	rest, left int64 // unspent budget = rest + left; left is the current quantum
	ctx        context.Context
	done       <-chan struct{}
	spent      error
}

// NewMeter meters fuel steps under ctx (nil for none); running out returns
// spent.
func NewMeter(ctx context.Context, fuel int64, spent error) Meter {
	m := Meter{rest: fuel, ctx: ctx, spent: spent}
	if ctx != nil {
		m.done = ctx.Done()
	}
	return m
}

// Charge spends n steps. The first charge always refuels, so a context
// that is already done stops the run before its first step.
func (m *Meter) Charge(n int64) error {
	m.left -= n
	if m.left < 0 {
		return m.refuel()
	}
	return nil
}

// Left returns the unspent budget (negative once spent).
func (m *Meter) Left() int64 { return m.rest + m.left }

// refuel runs when the current quantum is spent: it fails once the whole
// budget is gone, polls the context, and hands out the next quantum.
func (m *Meter) refuel() error {
	total := m.rest + m.left
	if total < 0 {
		return m.spent
	}
	if m.done != nil {
		select {
		case <-m.done:
			return m.ctx.Err()
		default:
		}
	}
	m.left = min(total, fuelQuantum)
	m.rest = total - m.left
	return nil
}

// runner is one execution of a program.
type runner struct {
	p      *Program
	fuel   Meter
	budget MemBudget
	st     *runState

	obs  func(*llvm.Instr, int64)
	srcs [][]*llvm.Instr // per function, slot → defining instruction
}

// runState is the storage a run works in: the register frames and
// definedness flags of the active calls, stacked, and the allocation
// table. Runs reuse it through runStates.
type runState struct {
	regs []val
	defd []bool
	mems []*Mem // mems[0] is null
}

var runStates sync.Pool

// grow appends n zero elements to s, reusing its storage when it has room.
// Register frames and definedness flags are stacked this way: a frame keeps
// its backing array while deeper frames grow the stack.
func grow[T any](s []T, n int) []T {
	top := len(s)
	s = slices.Grow(s, n)[:top+n]
	clear(s[top:])
	return s
}

// alloc enters m into the allocation table and returns its index.
func (st *runState) alloc(m *Mem) int32 {
	st.mems = append(st.mems, m)
	return int32(len(st.mems) - 1)
}

// mem returns the allocation p points into, nil for a null pointer.
func (r *runner) mem(p val) *Mem { return r.st.mems[p.mem] }

func (r *runner) run(args []Arg) (int64, float64, error) {
	entry := &r.p.funcs[0]
	if len(args) != int(entry.nparams) {
		return 0, 0, fmt.Errorf("interp: @%s takes %d params, got %d", entry.name, entry.nparams, len(args))
	}
	st, _ := runStates.Get().(*runState)
	if st == nil {
		st = &runState{}
	}
	r.st = st
	st.mems = append(st.mems[:0], nil)
	st.regs = grow(st.regs[:0], int(entry.nslots))
	regs := st.regs
	var err error
	for i, a := range args {
		regs[i] = a.v
		if a.mem == nil {
			continue
		}
		// One memory passed twice (a descriptor's base and aligned
		// pointers) is one allocation.
		k := slices.Index(st.mems, a.mem)
		if k < 0 {
			if err = r.budget.Take(int64(len(a.mem.Bytes)), "argument memory"); err != nil {
				break
			}
			k = int(st.alloc(a.mem))
		}
		regs[i].mem = int32(k)
	}
	var v val
	if err == nil {
		v, err = r.call(0, regs, 0)
	}
	// The table must not pin the caller's memory while pooled.
	clear(st.mems)
	st.mems, st.regs, st.defd = st.mems[:0], st.regs[:0], st.defd[:0]
	runStates.Put(st)
	r.st = nil
	return v.i, v.f, err
}

// call executes function fi on a frame whose parameter slots are filled.
func (r *runner) call(fi int32, regs []val, depth int) (val, error) {
	f := &r.p.funcs[fi]
	if depth > 100 {
		return val{}, trapf(TrapCallDepth, "call depth exceeded in @%s", f.name)
	}
	for _, c := range f.consts {
		regs[c.slot] = val{i: c.i, f: math.Float64frombits(c.f)}
	}
	var defd []bool
	if f.ntracked > 0 {
		base := len(r.st.defd)
		r.st.defd = grow(r.st.defd, int(f.ntracked))
		defd = r.st.defd[base:]
		defer func() { r.st.defd = r.st.defd[:base] }()
	}
	var srcs []*llvm.Instr
	if r.obs != nil {
		srcs = r.srcs[fi]
	}
	code, steps := f.code, f.steps
	for pc := int32(0); ; {
		in := &code[pc]
		pc++
		switch in.op {
		case opEnter:
			if err := r.fuel.Charge(in.imm); err != nil {
				return val{}, err
			}
		case opJmp:
			pc = in.a
		case opCondBr:
			if regs[in.a].i != 0 {
				pc = in.b
			} else {
				pc = in.c
			}
		case opRet:
			if in.a < 0 {
				return val{}, nil
			}
			return regs[in.a], nil
		case opMov:
			regs[in.dst] = regs[in.a]
		case opMark:
			defd[in.imm] = true
		case opCheck:
			if !defd[in.imm] {
				return val{}, f.fail(pc-1, trapf(TrapUndef, "use of undefined value %s", f.undef[in.imm]))
			}
		case opError:
			return val{}, f.fail(pc-1, f.errs[in.c])

		case opAdd:
			regs[in.dst] = val{i: (regs[in.a].i + regs[in.b].i) << in.sub >> in.sub}
		case opSub:
			regs[in.dst] = val{i: (regs[in.a].i - regs[in.b].i) << in.sub >> in.sub}
		case opMul:
			regs[in.dst] = val{i: (regs[in.a].i * regs[in.b].i) << in.sub >> in.sub}
		case opSDiv:
			d := regs[in.b].i
			if d == 0 {
				return val{}, f.fail(pc-1, trapf(TrapDivZero, "sdiv by zero"))
			}
			regs[in.dst] = val{i: (regs[in.a].i / d) << in.sub >> in.sub}
		case opSRem:
			d := regs[in.b].i
			if d == 0 {
				return val{}, f.fail(pc-1, trapf(TrapDivZero, "srem by zero"))
			}
			regs[in.dst] = val{i: (regs[in.a].i % d) << in.sub >> in.sub}
		case opAnd:
			regs[in.dst] = val{i: (regs[in.a].i & regs[in.b].i) << in.sub >> in.sub}
		case opOr:
			regs[in.dst] = val{i: (regs[in.a].i | regs[in.b].i) << in.sub >> in.sub}
		case opXor:
			regs[in.dst] = val{i: (regs[in.a].i ^ regs[in.b].i) << in.sub >> in.sub}
		case opShl:
			regs[in.dst] = val{i: (regs[in.a].i << uint(regs[in.b].i)) << in.sub >> in.sub}
		case opLShr:
			u := uint64(regs[in.a].i) & uint64(in.imm)
			regs[in.dst] = val{i: int64(u>>uint(regs[in.b].i)) << in.sub >> in.sub}
		case opAShr:
			regs[in.dst] = val{i: (regs[in.a].i >> uint(regs[in.b].i)) << in.sub >> in.sub}

		case opFAdd32:
			regs[in.dst] = val{f: float64(float32(regs[in.a].f + regs[in.b].f))}
		case opFAdd64:
			regs[in.dst] = val{f: regs[in.a].f + regs[in.b].f}
		case opFSub32:
			regs[in.dst] = val{f: float64(float32(regs[in.a].f - regs[in.b].f))}
		case opFSub64:
			regs[in.dst] = val{f: regs[in.a].f - regs[in.b].f}
		case opFMul32:
			regs[in.dst] = val{f: float64(float32(regs[in.a].f * regs[in.b].f))}
		case opFMul64:
			regs[in.dst] = val{f: regs[in.a].f * regs[in.b].f}
		case opFDiv32:
			regs[in.dst] = val{f: float64(float32(regs[in.a].f / regs[in.b].f))}
		case opFDiv64:
			regs[in.dst] = val{f: regs[in.a].f / regs[in.b].f}
		case opFNeg:
			regs[in.dst] = val{f: -regs[in.a].f}

		case opICmp:
			regs[in.dst] = val{i: b2i(icmp(in.sub, regs[in.a].i, regs[in.b].i))}
		case opPCmp:
			c, err := pcmp(in.sub, regs[in.a], regs[in.b])
			if err != nil {
				return val{}, f.fail(pc-1, err)
			}
			regs[in.dst] = val{i: b2i(c)}
		case opFCmp:
			regs[in.dst] = val{i: b2i(fcmp(in.sub, regs[in.a].f, regs[in.b].f))}
		case opSelect:
			if regs[in.a].i != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case opSelectChecked:
			// imm packs the tracked index+1 of the true (high half) and
			// false (low half) arm; 0 means the arm needs no check.
			arm, k := in.c, in.imm&0xffffffff
			if regs[in.a].i != 0 {
				arm, k = in.b, in.imm>>32
			}
			if k != 0 && !defd[k-1] {
				return val{}, f.fail(pc-1, trapf(TrapUndef, "use of undefined value %s", f.undef[k-1]))
			}
			regs[in.dst] = regs[arm]

		case opZExt:
			regs[in.dst] = val{i: regs[in.a].i & in.imm}
		case opIntOnly:
			regs[in.dst] = val{i: regs[in.a].i}
		case opTrunc:
			regs[in.dst] = val{i: regs[in.a].i << in.sub >> in.sub}
		case opSIToFP32:
			regs[in.dst] = val{f: float64(float32(float64(regs[in.a].i)))}
		case opSIToFP64:
			regs[in.dst] = val{f: float64(regs[in.a].i)}
		case opFPToSI:
			regs[in.dst] = val{i: int64(regs[in.a].f)}
		case opFRound32:
			regs[in.dst] = val{f: float64(float32(regs[in.a].f))}
		case opFloatOnly:
			regs[in.dst] = val{f: regs[in.a].f}

		case opAlloca:
			if err := r.budget.Take(in.imm, "alloca"); err != nil {
				return val{}, f.fail(pc-1, err)
			}
			regs[in.dst] = val{mem: r.st.alloc(NewMem(in.imm))}
		case opGEP:
			base := regs[in.a]
			if base.mem == 0 {
				return val{}, f.fail(pc-1, trapf(TrapNilPtr, "gep on non-pointer value"))
			}
			off := base.off + in.imm
			for _, s := range steps[in.b : in.b+in.c] {
				off += regs[s.slot].i * s.stride
			}
			regs[in.dst] = val{mem: base.mem, off: off}
		case opLoad:
			v, err := load(r.mem(regs[in.a]), regs[in.a].off, in)
			if err == nil && in.sub == memBad {
				err = f.errs[in.c]
			}
			if err != nil {
				return val{}, f.fail(pc-1, err)
			}
			regs[in.dst] = v
		case opStore:
			err := store(r.mem(regs[in.b]), regs[in.b].off, in, regs[in.a])
			if err == nil && (in.sub == memBad || in.sub == memPtr) {
				err = f.errs[in.c]
			}
			if err != nil {
				return val{}, f.fail(pc-1, err)
			}

		case opCall:
			callee := &r.p.funcs[in.a]
			base := len(r.st.regs)
			r.st.regs = grow(r.st.regs, int(callee.nslots))
			frame := r.st.regs[base:]
			for k, s := range f.args[in.b : in.b+int32(callee.nparams)] {
				frame[k] = regs[s]
			}
			v, err := r.call(in.a, frame, depth+1)
			r.st.regs = r.st.regs[:base]
			if err != nil {
				return val{}, f.fail(pc-1, err)
			}
			regs[in.dst] = v
		case opSqrt64:
			regs[in.dst] = val{f: math.Sqrt(regs[in.a].f)}
		case opSqrt32:
			regs[in.dst] = val{f: float64(float32(math.Sqrt(regs[in.a].f)))}
		case opExp64:
			regs[in.dst] = val{f: math.Exp(regs[in.a].f)}
		case opExp32:
			regs[in.dst] = val{f: float64(float32(math.Exp(regs[in.a].f)))}
		case opFma64:
			regs[in.dst] = val{f: regs[in.a].f*regs[in.b].f + regs[in.c].f}
		case opFma32:
			regs[in.dst] = val{f: float64(float32(regs[in.a].f*regs[in.b].f + regs[in.c].f))}
		case opFabs64:
			regs[in.dst] = val{f: math.Abs(regs[in.a].f)}
		case opFabs32:
			regs[in.dst] = val{f: float64(float32(math.Abs(regs[in.a].f)))}
		case opMalloc:
			n := regs[in.a].i
			if err := r.budget.Take(n, "malloc"); err != nil {
				return val{}, f.fail(pc-1, err)
			}
			regs[in.dst] = val{mem: r.st.alloc(NewMem(n))}
		case opNop:
			regs[in.dst] = val{}
		case opMemset:
			p, n := regs[in.a], regs[in.c].i
			name := memIntrinsicNames[in.sub]
			m := r.mem(p)
			if m == nil {
				return val{}, f.fail(pc-1, trapf(TrapNilPtr, "%s through nil pointer", name))
			}
			if p.off < 0 || p.off+n > int64(len(m.Bytes)) {
				return val{}, f.fail(pc-1, trapf(TrapOOB, "%s out of bounds (off %d, n %d, alloc %d)", name, p.off, n, len(m.Bytes)))
			}
			b := byte(regs[in.b].i)
			for i := int64(0); i < n; i++ {
				m.Bytes[p.off+i] = b
			}
			regs[in.dst] = val{}
		case opMemcpy:
			dst, src, n := regs[in.a], regs[in.b], regs[in.c].i
			name := memIntrinsicNames[in.sub]
			dm, sm := r.mem(dst), r.mem(src)
			if dm == nil || sm == nil {
				return val{}, f.fail(pc-1, trapf(TrapNilPtr, "%s through nil pointer", name))
			}
			if dst.off < 0 || dst.off+n > int64(len(dm.Bytes)) ||
				src.off < 0 || src.off+n > int64(len(sm.Bytes)) {
				return val{}, f.fail(pc-1, trapf(TrapOOB, "%s out of bounds (n %d)", name, n))
			}
			copy(dm.Bytes[dst.off:dst.off+n], sm.Bytes[src.off:src.off+n])
			regs[in.dst] = val{}
		default:
			panic(fmt.Sprintf("interp: unknown program opcode %d", in.op))
		}
		if srcs != nil && in.dst >= 0 {
			if src := srcs[in.dst]; src != nil {
				r.obs(src, regs[in.dst].i)
			}
		}
	}
}

// memIntrinsicNames spells the memset/memcpy callee an instruction's sub
// field selects, for trap details.
var memIntrinsicNames = [...]string{"llvm.memset.p0.i64", "memset", "llvm.memcpy.p0.p0.i64", "memcpy"}

// load reads the typed value at offset o of m; a memBad kind passes the nil
// and bounds checks and leaves the error to the caller.
func load(m *Mem, o int64, in *inst) (val, error) {
	if m == nil {
		return val{}, trapf(TrapNilPtr, "load through nil pointer")
	}
	b := m.Bytes
	if o < 0 || o+in.imm > int64(len(b)) {
		return val{}, trapf(TrapOOB, "load out of bounds (off %d, size %d, alloc %d)", o, in.imm, len(b))
	}
	switch in.sub {
	case memF32:
		return val{f: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[o:])))}, nil
	case memF64:
		return val{f: math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))}, nil
	case memI8:
		return val{i: int64(int8(b[o]))}, nil
	case memI16:
		return val{i: int64(int16(binary.LittleEndian.Uint16(b[o:])))}, nil
	case memI32:
		return val{i: int64(int32(binary.LittleEndian.Uint32(b[o:])))}, nil
	case memI64:
		return val{i: int64(binary.LittleEndian.Uint64(b[o:]))}, nil
	}
	return val{}, nil
}

// store writes v at offset o of m at the instruction's value width; memBad
// and memPtr kinds pass the nil and bounds checks and write nothing.
func store(m *Mem, o int64, in *inst, v val) error {
	if m == nil {
		return trapf(TrapNilPtr, "store through nil pointer")
	}
	b := m.Bytes
	if o < 0 || o+in.imm > int64(len(b)) {
		return trapf(TrapOOB, "store out of bounds (off %d, size %d, alloc %d)", o, in.imm, len(b))
	}
	switch in.sub {
	case memF32:
		binary.LittleEndian.PutUint32(b[o:], math.Float32bits(float32(v.f)))
	case memF64:
		binary.LittleEndian.PutUint64(b[o:], math.Float64bits(v.f))
	case memI8:
		b[o] = byte(v.i)
	case memI16:
		binary.LittleEndian.PutUint16(b[o:], uint16(v.i))
	case memI32:
		binary.LittleEndian.PutUint32(b[o:], uint32(v.i))
	case memI64:
		binary.LittleEndian.PutUint64(b[o:], uint64(v.i))
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func icmp(pred uint8, l, r int64) bool {
	switch pred {
	case predEQ:
		return l == r
	case predNE:
		return l != r
	case predSLT:
		return l < r
	case predSLE:
		return l <= r
	case predSGT:
		return l > r
	case predSGE:
		return l >= r
	case predULT:
		return uint64(l) < uint64(r)
	case predULE:
		return uint64(l) <= uint64(r)
	case predUGT:
		return uint64(l) > uint64(r)
	default: // predUGE; the compiler admits no other predicate
		return uint64(l) >= uint64(r)
	}
}

// errPtrOrder reports an ordered comparison of pointers that do not point
// into one allocation: this model places allocations nowhere in relation
// to each other, so it cannot order them.
var errPtrOrder = errors.New("interp: ordered comparison of pointers into different allocations")

// pcmp compares two pointers. eq and ne compare allocation and offset (and
// the integer a pointer made by inttoptr carries); the ordered predicates
// compare offsets within one allocation, where unsigned and signed order
// agree as they do for addresses.
func pcmp(pred uint8, l, r val) (bool, error) {
	switch pred {
	case predEQ:
		return l.mem == r.mem && l.off == r.off && l.i == r.i, nil
	case predNE:
		return l.mem != r.mem || l.off != r.off || l.i != r.i, nil
	}
	if l.mem == 0 || l.mem != r.mem {
		return false, errPtrOrder
	}
	switch pred {
	case predSLT, predULT:
		return l.off < r.off, nil
	case predSLE, predULE:
		return l.off <= r.off, nil
	case predSGT, predUGT:
		return l.off > r.off, nil
	default: // predSGE, predUGE
		return l.off >= r.off, nil
	}
}

func fcmp(pred uint8, l, r float64) bool {
	switch pred {
	case predOEQ:
		return l == r
	case predONE:
		return l != r
	case predOLT:
		return l < r
	case predOLE:
		return l <= r
	case predOGT:
		return l > r
	case predOGE:
		return l >= r
	case predORD:
		return !math.IsNaN(l) && !math.IsNaN(r)
	default: // predUNO; the compiler admits no other predicate
		return math.IsNaN(l) || math.IsNaN(r)
	}
}
