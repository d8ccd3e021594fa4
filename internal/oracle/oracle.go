// Package oracle is the differential-execution harness behind
// flow.Options.VerifySemantics: it captures a reference execution of the
// pristine MLIR kernel once, then re-executes the evolving IR after every
// pipeline unit — MLIR form through the MLIR stages, LLVM form after
// translation — on identically-initialized buffers and compares the output
// memory state. Integers must match bitwise; floats must agree within a
// ULP tolerance (interp.ULPEqual — never an ad-hoc epsilon). The first
// divergence names the unit that introduced it, the semantic twin of
// flow.Bisect: where bisection localizes the first unit that crashes or
// breaks a structural invariant, the oracle localizes the first unit that
// computes the wrong answer while the IR still verifies and schedules.
//
// Each check first compiles the module into an execution program
// (mlir.Program, interp.Program) and hashes it (Digest). A kernel's
// reference lives in one process-wide table, keyed by the top function and
// the digest of its pristine program and bounded in entries and bytes, so
// every job on an equal pristine program shares one reference run. Beside
// it the reference keeps a bounded set of verdicts, each an IR level, a
// program digest, a tolerance and a fuel budget under which that program
// passed. A check whose verdict any harness on the reference has recorded
// returns without executing: an equal program run on the reference's fixed
// inputs under the same fuel and tolerance computes the same memory, so its
// verdict cannot differ. Units that leave the executed program unchanged —
// directive passes, no-op cleanups, synthesis — and programs another job
// already ran skip execution.
//
// Checks reuse storage instead of allocating it. Every compiled program is
// released as soon as its check is done with it, so the next compile fills
// its storage; the harness keeps digests, never programs. Inputs are copied
// from templates filled once per reference, into buffers handed from check
// to check, and outputs are compared in place.
package oracle

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/mlir"
	"repro/internal/translate"
)

// DefaultMaxULP is the oracle's float tolerance: transformed pipelines may
// legitimately reassociate a constant fold or two, but anything beyond a
// few units in the last place at the element width is a wrong answer.
const DefaultMaxULP = 4

// Divergence is the first element-wise mismatch between a staged execution
// and the reference run.
type Divergence struct {
	// Arg and Index locate the mismatch: argument position of the top
	// function and row-major element offset within it.
	Arg   int
	Index int
	// Got is the staged pipeline's value, Want the reference value.
	Got, Want float64
	// ULP is the distance at the element width (0 for integer elements,
	// which must match exactly).
	ULP uint64
	// Int marks an integer-element mismatch.
	Int bool
}

// Error implements error.
func (d *Divergence) Error() string {
	if d.Int {
		return fmt.Sprintf("semantic divergence: arg %d element %d: got %d, want %d",
			d.Arg, d.Index, int64(d.Got), int64(d.Want))
	}
	return fmt.Sprintf("semantic divergence: arg %d element %d: got %v, want %v (%d ULP apart)",
		d.Arg, d.Index, d.Got, d.Want, d.ULP)
}

// IsMiscompile classifies an oracle check error: a divergence, a typed
// trap (out-of-bounds, division by zero, a non-positive loop step), or fuel
// exhaustion all mean the pipeline changed what the program computes — a
// miscompile. Anything else (an op or predicate the oracle cannot execute,
// an ABI it does not recognize, memory past interp.MaxMemBytes) is an
// oracle limitation and must surface as an ordinary error, never as a false
// miscompile verdict.
func IsMiscompile(err error) bool {
	var d *Divergence
	if errors.As(err, &d) {
		return true
	}
	if errors.Is(err, interp.ErrFuel) || errors.Is(err, mlir.ErrFuel) {
		return true
	}
	_, ok := interp.AsTrap(err)
	return ok
}

// Harness is one run's handle on a kernel's reference execution. Top,
// MaxULP and Fuel are the handle's own: a caller that changes them affects
// no other harness. The reference behind it is read-only but for its spare
// buffers and its verdicts, both under locks, so a single harness checks
// every stage of a flow — and both flows of a differential pair, since they
// share the pre-pipeline semantics — concurrently if need be, and harnesses
// on the same reference do too.
type Harness struct {
	// Top is the kernel function under test.
	Top string
	// MaxULP is the float tolerance (DefaultMaxULP when zero-initialized
	// via New).
	MaxULP uint64
	// Fuel bounds each staged execution.
	Fuel int64

	ref *reference
}

// reference is one kernel's reference execution and what checks against it
// share: the argument shapes, the reference outputs, the input templates,
// the spare input buffers and the verdicts of the programs that passed.
// Everything but the spare lists and the verdicts is written before the
// reference is shared and only read after.
type reference struct {
	shapes []*mlir.Type // memref type of each top-function argument
	refF   [][]float64  // reference output, float-element arguments
	refI   [][]int64    // reference output, integer-element arguments

	// Input templates: each argument's deterministic input in MLIR buffer
	// and LLVM memory form. Checks copy them into recycled buffers.
	mlirIn  []*mlir.MemBuf
	llvmIn  []*interp.Mem
	mlirBuf spare[[]*mlir.MemBuf]
	llvmMem spare[*llvmInputs]

	verdicts verdictSet

	// bytes bounds the element storage the reference holds: its outputs,
	// both templates, and maxSpares spare sets of each form.
	bytes int64
}

// llvmInputs is one LLVM check's argument memory and the call arguments
// pointing into it.
type llvmInputs struct {
	mems []*interp.Mem
	args []interp.Arg
}

// spare holds the input buffers of finished checks for later checks to
// refill; concurrent checks each take their own. It keeps at most
// maxSpares sets and lets the rest go.
type spare[T any] struct {
	mu   sync.Mutex
	sets []T
}

func (s *spare[T]) get() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var x T
	n := len(s.sets)
	if n == 0 {
		return x, false
	}
	x, s.sets = s.sets[n-1], s.sets[:n-1]
	return x, true
}

func (s *spare[T]) put(x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sets) < maxSpares {
		s.sets = append(s.sets, x)
	}
}

// irLevel is the IR level a program was compiled from.
type irLevel uint8

const (
	levelMLIR irLevel = iota
	levelLLVM
)

// verdict records one passed check: a program of one IR level, named by
// its digest, matched the reference within maxULP under a fuel budget. A
// program with the same digest executes identically on the reference's
// fixed inputs under the same budget, so its check would pass again.
type verdict struct {
	level  irLevel
	digest [sha256.Size]byte
	maxULP uint64
	fuel   int64
}

// verdictSet is a reference's bounded set of verdicts.
type verdictSet struct {
	mu sync.Mutex
	m  map[verdict]struct{}
}

func (s *verdictSet) has(v verdict) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[v]
	return ok
}

// add records v, dropping an arbitrary verdict when the set is full.
func (s *verdictSet) add(v verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[verdict]struct{})
	}
	if len(s.m) >= maxVerdicts {
		for old := range s.m { // map order is unspecified: an arbitrary verdict
			delete(s.m, old)
			break
		}
	}
	s.m[v] = struct{}{}
}

// The shared table's bounds. A reference counts its element storage
// (reference.bytes); the 18 polybench kernels' references take 0.21 MB
// together at MINI and 0.80 MB at SMALL.
const (
	// maxRefs bounds the references the table holds.
	maxRefs = 64
	// maxTableBytes bounds the bytes of the references the table holds.
	maxTableBytes = 8 << 20
	// maxRefBytes is the largest reference the table shares; a larger one
	// stays private to the harness New returns.
	maxRefBytes = 1 << 20
	// maxVerdicts bounds each reference's verdicts.
	maxVerdicts = 256
	// maxSpares bounds each reference's spare input sets per IR level.
	maxSpares = 4
)

// refKey names a reference: the top function and the digest of the
// pristine program it was executed from. The digest covers the argument
// types the inputs are derived from, so an equal key is an equal
// reference execution.
type refKey struct {
	top    string
	digest [sha256.Size]byte
}

// refTable is the process-wide table of shared references.
type refTable struct {
	mu    sync.Mutex
	refs  map[refKey]*reference
	bytes int64
}

// shared is the one table every New consults.
var shared = refTable{refs: make(map[refKey]*reference)}

func (t *refTable) get(k refKey) *reference {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refs[k]
}

// add shares r under k unless a reference is already held there, and
// returns the one the table holds. To make room it drops arbitrary
// references, which stay valid for the harnesses that hold them. A
// reference larger than maxRefBytes is not shared: add returns it as is.
func (t *refTable) add(k refKey, r *reference) *reference {
	if r.bytes > maxRefBytes {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if held, ok := t.refs[k]; ok {
		return held
	}
	for old, held := range t.refs { // map order is unspecified: arbitrary references
		if len(t.refs) < maxRefs && t.bytes+r.bytes <= maxTableBytes {
			break
		}
		delete(t.refs, old)
		t.bytes -= held.bytes
	}
	t.refs[k] = r
	t.bytes += r.bytes
	return r
}

// New returns a harness on the reference execution of top in m. The module
// must be in its pre-pipeline form; callers own making the call before any
// pass mutates it. When a reference for an equal pristine program is in
// the shared table, New costs one compile and one lookup; otherwise it
// runs the reference and shares it.
func New(m *mlir.Module, top string) (*Harness, error) {
	f := m.FindFunc(top)
	if f == nil {
		return nil, fmt.Errorf("oracle: function %q not found", top)
	}
	var shapes []*mlir.Type
	for i, a := range mlir.FuncBody(f).Args {
		t := a.Type()
		if !t.IsMemRef() || !t.HasStaticShape() {
			return nil, fmt.Errorf("oracle: argument %d of %q is not a static memref", i, top)
		}
		shapes = append(shapes, t)
	}
	p, err := m.Compile(top)
	if err != nil {
		return nil, fmt.Errorf("oracle: reference execution: %w", err)
	}
	h := &Harness{Top: top, MaxULP: DefaultMaxULP, Fuel: mlir.DefaultFuel}
	key := refKey{top: top, digest: p.Digest()}
	if h.ref = shared.get(key); h.ref != nil {
		p.Release()
		return h, nil
	}
	r, err := newReference(top, shapes)
	if err != nil {
		p.Release()
		return nil, err
	}
	bufs := r.freshMLIRBufs()
	err = p.Run(context.TODO(), h.Fuel, bufs...)
	p.Release()
	if err != nil {
		return nil, fmt.Errorf("oracle: reference execution: %w", err)
	}
	// The reference run's buffers become the reference; they are never
	// handed to a check.
	r.refF = make([][]float64, len(bufs))
	r.refI = make([][]int64, len(bufs))
	for i, b := range bufs {
		r.refF[i] = b.F
		r.refI[i] = b.I
	}
	r.verdicts.add(verdict{level: levelMLIR, digest: key.digest, maxULP: h.MaxULP, fuel: h.Fuel})
	h.ref = shared.add(key, r)
	return h, nil
}

// newReference returns a reference for the given argument shapes with its
// input templates filled, or an error when the arguments do not fit one
// execution's memory budget (interp.MaxMemBytes, counted in the MLIR
// buffer form, the larger one). That is an oracle limitation, never a
// miscompile. The templates are filled here, before the reference is
// shared: checks on several goroutines only read them.
func newReference(top string, shapes []*mlir.Type) (*reference, error) {
	var budget interp.MemBudget
	for _, t := range shapes {
		if err := budget.Take(mlir.MemBufBytes(t), "argument memory"); err != nil {
			return nil, fmt.Errorf("oracle: arguments of %q: %w", top, err)
		}
	}
	r := &reference{shapes: shapes}
	r.mlirIn = make([]*mlir.MemBuf, len(shapes))
	r.llvmIn = make([]*interp.Mem, len(shapes))
	for ai, t := range shapes {
		b := mlir.NewMemBuf(t)
		for i := range b.F {
			b.F[i] = fillFloat(ai, i, t.Elem)
		}
		for i := range b.I {
			b.I[i] = fillInt(ai, i)
		}
		r.mlirIn[ai] = b

		n := t.NumElements()
		eb := elemBytes(t)
		mem := interp.NewMem(n * eb)
		for i := int64(0); i < n; i++ {
			switch {
			case t.Elem.IsFloat() && eb == 4:
				mem.SetFloat32(int(i), float32(fillFloat(ai, int(i), t.Elem)))
			case t.Elem.IsFloat():
				mem.SetFloat64(int(i), fillFloat(ai, int(i), t.Elem))
			case eb == 4:
				mem.SetInt32(int(i), int32(fillInt(ai, int(i))))
			default:
				binary.LittleEndian.PutUint64(mem.Bytes[i*8:], uint64(fillInt(ai, int(i))))
			}
		}
		r.llvmIn[ai] = mem
		r.bytes += (16+eb)*n + maxSpares*(8+eb)*n
	}
	return r, nil
}

// fill writes the deterministic input pattern (the polybench initializer)
// into element i of argument ai at the argument's element precision.
func fillFloat(ai, i int, ty *mlir.Type) float64 {
	v := float64((i*7+ai*13)%17) / 17
	if ty.Width == 32 {
		return float64(float32(v))
	}
	return v
}

func fillInt(ai, i int) int64 { return int64((i*7 + ai*13) % 17) }

// freshMLIRBufs returns one MemBuf per argument holding its input: a
// finished check's buffers when there are some, refilled from the
// templates.
func (r *reference) freshMLIRBufs() []*mlir.MemBuf {
	bufs, ok := r.mlirBuf.get()
	if !ok {
		bufs = make([]*mlir.MemBuf, len(r.shapes))
		for ai, t := range r.shapes {
			bufs[ai] = mlir.NewMemBuf(t)
		}
	}
	for ai, b := range bufs {
		copy(b.F, r.mlirIn[ai].F)
		copy(b.I, r.mlirIn[ai].I)
	}
	return bufs
}

// CheckMLIR executes the staged MLIR module (structured or cf-lowered) on
// fresh inputs and compares the resulting memory against the reference.
func (h *Harness) CheckMLIR(m *mlir.Module) error {
	return h.CheckMLIRContext(context.TODO(), m)
}

// CheckMLIRContext is CheckMLIR under ctx: a done context stops the
// execution and the check returns the context's error. It returns without
// executing when the reference holds a verdict for the compiled program
// under the harness's tolerance and fuel.
func (h *Harness) CheckMLIRContext(ctx context.Context, m *mlir.Module) error {
	p, err := m.Compile(h.Top)
	if err != nil {
		return err
	}
	r := h.ref
	v := verdict{level: levelMLIR, digest: p.Digest(), maxULP: h.MaxULP, fuel: h.Fuel}
	if r.verdicts.has(v) {
		p.Release()
		return nil
	}
	bufs := r.freshMLIRBufs()
	err = p.Run(ctx, v.fuel, bufs...)
	p.Release()
	if err == nil {
		err = r.compareMLIR(bufs, v.maxULP)
	}
	r.mlirBuf.put(bufs)
	if err == nil {
		r.verdicts.add(v)
	}
	return err
}

// compareMLIR checks executed MLIR buffers against the reference.
func (r *reference) compareMLIR(bufs []*mlir.MemBuf, maxULP uint64) error {
	for ai, b := range bufs {
		elem := r.shapes[ai].Elem
		for i := range b.F {
			if err := r.compareFloat(ai, i, b.F[i], elem, maxULP); err != nil {
				return err
			}
		}
		for i := range b.I {
			if b.I[i] != r.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(b.I[i]), Want: float64(r.refI[ai][i]), Int: true}
			}
		}
	}
	return nil
}

// CheckLLVM executes the staged LLVM module on fresh memory and compares
// the resulting state against the reference. It recognizes both calling
// conventions the flows produce: the post-translate expanded memref
// descriptor ABI (base/aligned/offset/sizes/strides per argument) and the
// post-adaptor / C-frontend one-pointer-per-array-port ABI.
func (h *Harness) CheckLLVM(lm *llvm.Module) error {
	return h.CheckLLVMContext(context.TODO(), lm)
}

// CheckLLVMContext is CheckLLVM under ctx: a done context stops the
// execution and the check returns the context's error. It returns without
// executing when the reference holds a verdict for the compiled program —
// which includes the entry ABI the arguments are synthesized for — under
// the harness's tolerance and fuel.
func (h *Harness) CheckLLVMContext(ctx context.Context, lm *llvm.Module) error {
	if lm.FindFunc(h.Top) == nil {
		return fmt.Errorf("oracle: function @%s not found in LLVM module", h.Top)
	}
	p, err := interp.Compile(lm, h.Top)
	if err != nil {
		return err
	}
	r := h.ref
	v := verdict{level: levelLLVM, digest: p.Digest(), maxULP: h.MaxULP, fuel: h.Fuel}
	if r.verdicts.has(v) {
		p.Release()
		return nil
	}
	in := r.freshMems()
	err = h.runLLVM(ctx, p, v, in)
	p.Release()
	r.llvmMem.put(in)
	if err == nil {
		r.verdicts.add(v)
	}
	return err
}

// runLLVM executes p on the inputs under v's fuel and compares the outputs
// with the reference within v's tolerance.
func (h *Harness) runLLVM(ctx context.Context, p *interp.Program, v verdict, in *llvmInputs) error {
	args, err := h.llvmArgs(p.Params(), in.mems, in.args[:0])
	if err != nil {
		return err
	}
	in.args = args
	fuel := v.fuel
	if fuel <= 0 {
		fuel = interp.DefaultFuel
	}
	if _, _, err := p.Run(ctx, fuel, args...); err != nil {
		return err
	}
	for ai, mem := range in.mems {
		if err := h.ref.compareMem(ai, mem, v.maxULP); err != nil {
			return err
		}
	}
	return nil
}

// elemBytes is the in-memory size of one element of the argument type.
func elemBytes(t *mlir.Type) int64 {
	if t.Elem.Width == 32 {
		return 4
	}
	return 8
}

// freshMems returns one flat allocation per argument holding its input: a
// finished check's memory when there is some, refilled from the
// templates.
func (r *reference) freshMems() *llvmInputs {
	in, ok := r.llvmMem.get()
	if !ok {
		in = &llvmInputs{mems: make([]*interp.Mem, len(r.shapes))}
		for ai, t := range r.llvmIn {
			in.mems[ai] = interp.NewMem(int64(len(t.Bytes)))
		}
	}
	for ai, mem := range in.mems {
		copy(mem.Bytes, r.llvmIn[ai].Bytes)
	}
	return in
}

// llvmArgs appends to args the call arguments for a function with the
// given parameter classes over mems, dispatching on the parameter count to
// pick the ABI.
func (h *Harness) llvmArgs(params []interp.ParamKind, mems []*interp.Mem, args []interp.Arg) ([]interp.Arg, error) {
	shapes := h.ref.shapes
	descParams := 0
	for _, t := range shapes {
		descParams += translate.DescriptorParams(len(t.Shape))
	}
	switch len(params) {
	case len(shapes):
		for _, m := range mems {
			args = append(args, interp.PtrArg(m, 0))
		}
		return args, nil
	case descParams:
		for ai, t := range shapes {
			m := mems[ai]
			args = append(args, interp.PtrArg(m, 0), interp.PtrArg(m, 0), interp.IntArg(0))
			for _, d := range t.Shape {
				args = append(args, interp.IntArg(d))
			}
			// Row-major strides: each dimension steps over the ones after it.
			for d := range t.Shape {
				stride := int64(1)
				for _, e := range t.Shape[d+1:] {
					stride *= e
				}
				args = append(args, interp.IntArg(stride))
			}
		}
		return args, nil
	}
	// Shapes recovered from an adapted signature (ShapesOf) are flattened,
	// so their ranks cannot reconstruct the descriptor layout. The pattern
	// can: descriptor ports are a (base, aligned) pointer pair followed by
	// offset/size/stride scalars, and the generated code bakes static
	// strides in, so the scalar values are immaterial — only the slot count
	// matters.
	var ok bool
	if args, ok = h.descriptorArgsByPattern(params, mems, args); ok {
		return args, nil
	}
	return nil, fmt.Errorf("oracle: @%s has %d params, matching neither the direct ABI (%d) nor the descriptor ABI (%d)",
		h.Top, len(params), len(shapes), descParams)
}

// descriptorArgsByPattern appends to args the descriptor-ABI call
// arguments synthesized from the parameter class pattern alone. It reports
// false when the pattern does not spell exactly one (ptr, ptr) pair per
// harness argument.
func (h *Harness) descriptorArgsByPattern(params []interp.ParamKind, mems []*interp.Mem, args []interp.Arg) ([]interp.Arg, bool) {
	port := 0
	expectAligned := false
	for _, p := range params {
		switch {
		case p == interp.ParamPtr && expectAligned:
			args = append(args, interp.PtrArg(mems[port], 0))
			port++
			expectAligned = false
		case p == interp.ParamPtr:
			if port >= len(mems) {
				return args, false
			}
			args = append(args, interp.PtrArg(mems[port], 0))
			expectAligned = true
		case p == interp.ParamInt && !expectAligned:
			args = append(args, interp.IntArg(0))
		default:
			return args, false
		}
	}
	return args, port == len(mems) && !expectAligned
}

// compareMem checks one output allocation against the reference argument
// within maxULP, decoding its elements in place.
func (r *reference) compareMem(ai int, mem *interp.Mem, maxULP uint64) error {
	t := r.shapes[ai]
	n := int(t.NumElements())
	b := mem.Bytes
	switch {
	case t.Elem.IsFloat() && t.Elem.Width == 32:
		for i := 0; i < n; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
			want := float32(r.refF[ai][i])
			if !interp.ULPEqual32(got, want, maxULP) {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(want),
					ULP: interp.ULPDiff32(got, want)}
			}
		}
	case t.Elem.IsFloat():
		for i := 0; i < n; i++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			want := r.refF[ai][i]
			if !interp.ULPEqual(got, want, maxULP) {
				return &Divergence{Arg: ai, Index: i, Got: got, Want: want,
					ULP: interp.ULPDiff64(got, want)}
			}
		}
	case t.Elem.Width == 32:
		for i := 0; i < n; i++ {
			got := int32(binary.LittleEndian.Uint32(b[i*4:]))
			if int64(got) != r.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(r.refI[ai][i]), Int: true}
			}
		}
	default:
		for i := 0; i < n; i++ {
			got := int64(binary.LittleEndian.Uint64(b[i*8:]))
			if got != r.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(r.refI[ai][i]), Int: true}
			}
		}
	}
	return nil
}

// compareFloat checks a staged MLIR float element at the element width.
func (r *reference) compareFloat(ai, i int, got float64, elem *mlir.Type, maxULP uint64) error {
	want := r.refF[ai][i]
	if elem.Width == 32 {
		g, w := float32(got), float32(want)
		if !interp.ULPEqual32(g, w, maxULP) {
			return &Divergence{Arg: ai, Index: i, Got: got, Want: want, ULP: interp.ULPDiff32(g, w)}
		}
		return nil
	}
	if !interp.ULPEqual(got, want, maxULP) {
		return &Divergence{Arg: ai, Index: i, Got: got, Want: want, ULP: interp.ULPDiff64(got, want)}
	}
	return nil
}
