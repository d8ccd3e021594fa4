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
// (mlir.Program, interp.Program). The harness remembers, per IR level, the
// last program that passed, and a check whose program equals it returns
// without executing: an equal program run on the harness's fixed inputs
// under the same fuel and tolerance computes the same memory, so its
// verdict cannot differ. Units that leave the executed program unchanged —
// directive passes, no-op cleanups, synthesis — skip execution.
//
// Checks reuse storage instead of allocating it. The harness recycles
// compiled programs: it calls Release on exactly two kinds, a candidate
// that equals the remembered program (the check returns without running
// it) and the remembered program a newly passed one displaces, so the next
// compile fills their storage. A program is released only once nothing
// references it: never one the harness still remembers, since Equal's
// identity shortcut would then compare a program with itself, and never
// one a caller holds. Inputs are copied from templates the constructors
// fill once, into buffers the harness hands from check to check, and
// outputs are compared in place.
package oracle

import (
	"context"
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
// an ABI it does not recognize) is an oracle limitation and must surface as
// an ordinary error, never as a false miscompile verdict.
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

// Harness holds one kernel's reference execution. It is built from the
// pristine module before any pass runs; afterwards only its memory of
// passed programs changes, under a lock, so a single harness checks every
// stage of a flow — and both flows of a differential pair, since they share
// the pre-pipeline semantics — concurrently if need be.
type Harness struct {
	// Top is the kernel function under test.
	Top string
	// MaxULP is the float tolerance (DefaultMaxULP when zero-initialized
	// via New).
	MaxULP uint64
	// Fuel bounds each staged execution.
	Fuel int64

	shapes []*mlir.Type // memref type of each top-function argument
	refF   [][]float64  // reference output, float-element arguments
	refI   [][]int64    // reference output, integer-element arguments

	// Input templates, filled once by the constructor and only read after:
	// each argument's deterministic input in MLIR buffer and LLVM memory
	// form. Checks copy them into recycled buffers.
	mlirIn  []*mlir.MemBuf
	llvmIn  []*interp.Mem
	mlirBuf spare[[]*mlir.MemBuf]
	llvmMem spare[*llvmInputs]

	// The last program per IR level that passed, starting with the
	// reference run's.
	mlirPassed passed[*mlir.Program]
	llvmPassed passed[*interp.Program]
}

// llvmInputs is one LLVM check's argument memory and the call arguments
// pointing into it.
type llvmInputs struct {
	mems []*interp.Mem
	args []interp.Arg
}

// spare holds the input buffers of finished checks for later checks to
// refill; concurrent checks each take their own.
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
	s.sets = append(s.sets, x)
}

// passed remembers the last program of one IR level that passed a check,
// with the tolerance and fuel it passed under: it vouches for an equal
// program only under those same settings.
type passed[P interface{ Equal(P) bool }] struct {
	mu     sync.Mutex
	prog   P
	ok     bool
	maxULP uint64
	fuel   int64
}

// covers reports whether p equals the remembered program and the settings
// are the ones it passed under.
func (v *passed[P]) covers(p P, maxULP uint64, fuel int64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ok && v.maxULP == maxULP && v.fuel == fuel && v.prog.Equal(p)
}

// remember records p as passed under the given settings and returns the
// program it displaced, if any, which nothing in v references any more.
func (v *passed[P]) remember(p P, maxULP uint64, fuel int64) (old P, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old, ok = v.prog, v.ok
	v.prog, v.ok, v.maxULP, v.fuel = p, true, maxULP, fuel
	return old, ok
}

// New captures the reference execution of top in m. The module must be in
// its pre-pipeline form; callers own making the call before any pass
// mutates it.
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
	h := newHarness(top, shapes)
	p, err := m.Compile(top)
	if err != nil {
		return nil, fmt.Errorf("oracle: reference execution: %w", err)
	}
	bufs := h.freshMLIRBufs()
	if err := p.Run(context.TODO(), h.Fuel, bufs...); err != nil {
		return nil, fmt.Errorf("oracle: reference execution: %w", err)
	}
	// The reference run's buffers become the reference; they are never
	// handed to a check.
	h.refF = make([][]float64, len(bufs))
	h.refI = make([][]int64, len(bufs))
	for i, b := range bufs {
		h.refF[i] = b.F
		h.refI[i] = b.I
	}
	h.mlirPassed.remember(p, h.MaxULP, h.Fuel)
	return h, nil
}

// newHarness returns a harness for the given argument shapes with its
// input templates filled. The templates are filled here, before the
// harness is shared: checks on several goroutines only read them.
func newHarness(top string, shapes []*mlir.Type) *Harness {
	h := &Harness{Top: top, MaxULP: DefaultMaxULP, Fuel: mlir.DefaultFuel, shapes: shapes}
	h.mlirIn = make([]*mlir.MemBuf, len(shapes))
	h.llvmIn = make([]*interp.Mem, len(shapes))
	for ai, t := range shapes {
		b := mlir.NewMemBuf(t)
		for i := range b.F {
			b.F[i] = fillFloat(ai, i, t.Elem)
		}
		for i := range b.I {
			b.I[i] = fillInt(ai, i)
		}
		h.mlirIn[ai] = b

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
		h.llvmIn[ai] = mem
	}
	return h
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
func (h *Harness) freshMLIRBufs() []*mlir.MemBuf {
	bufs, ok := h.mlirBuf.get()
	if !ok {
		bufs = make([]*mlir.MemBuf, len(h.shapes))
		for ai, t := range h.shapes {
			bufs[ai] = mlir.NewMemBuf(t)
		}
	}
	for ai, b := range bufs {
		copy(b.F, h.mlirIn[ai].F)
		copy(b.I, h.mlirIn[ai].I)
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
// executing when the compiled program equals the last one that passed.
func (h *Harness) CheckMLIRContext(ctx context.Context, m *mlir.Module) error {
	p, err := m.Compile(h.Top)
	if err != nil {
		return err
	}
	maxULP, fuel := h.MaxULP, h.Fuel
	if h.mlirPassed.covers(p, maxULP, fuel) {
		p.Release()
		return nil
	}
	bufs := h.freshMLIRBufs()
	err = p.Run(ctx, fuel, bufs...)
	if err == nil {
		err = h.compareMLIR(bufs)
	}
	h.mlirBuf.put(bufs)
	if err != nil {
		return err
	}
	if old, ok := h.mlirPassed.remember(p, maxULP, fuel); ok {
		old.Release()
	}
	return nil
}

// compareMLIR checks executed MLIR buffers against the reference.
func (h *Harness) compareMLIR(bufs []*mlir.MemBuf) error {
	for ai, b := range bufs {
		elem := h.shapes[ai].Elem
		for i := range b.F {
			if err := h.compareFloat(ai, i, b.F[i], elem); err != nil {
				return err
			}
		}
		for i := range b.I {
			if b.I[i] != h.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(b.I[i]), Want: float64(h.refI[ai][i]), Int: true}
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
// executing when the compiled program — which includes the entry ABI the
// arguments are synthesized for — equals the last one that passed.
func (h *Harness) CheckLLVMContext(ctx context.Context, lm *llvm.Module) error {
	if lm.FindFunc(h.Top) == nil {
		return fmt.Errorf("oracle: function @%s not found in LLVM module", h.Top)
	}
	p, err := interp.Compile(lm, h.Top)
	if err != nil {
		return err
	}
	maxULP, fuel := h.MaxULP, h.Fuel
	if h.llvmPassed.covers(p, maxULP, fuel) {
		p.Release()
		return nil
	}
	in := h.freshMems()
	err = h.runLLVM(ctx, p, fuel, in)
	h.llvmMem.put(in)
	if err != nil {
		return err
	}
	if old, ok := h.llvmPassed.remember(p, maxULP, fuel); ok {
		old.Release()
	}
	return nil
}

// runLLVM executes p on the inputs and compares the outputs with the
// reference.
func (h *Harness) runLLVM(ctx context.Context, p *interp.Program, fuel int64, in *llvmInputs) error {
	args, err := h.llvmArgs(p.Params(), in.mems, in.args[:0])
	if err != nil {
		return err
	}
	in.args = args
	if fuel <= 0 {
		fuel = interp.DefaultFuel
	}
	if _, _, err := p.Run(ctx, fuel, args...); err != nil {
		return err
	}
	for ai, mem := range in.mems {
		if err := h.compareMem(ai, mem); err != nil {
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
func (h *Harness) freshMems() *llvmInputs {
	in, ok := h.llvmMem.get()
	if !ok {
		in = &llvmInputs{mems: make([]*interp.Mem, len(h.shapes))}
		for ai, t := range h.llvmIn {
			in.mems[ai] = interp.NewMem(int64(len(t.Bytes)))
		}
	}
	for ai, mem := range in.mems {
		copy(mem.Bytes, h.llvmIn[ai].Bytes)
	}
	return in
}

// llvmArgs appends to args the call arguments for a function with the
// given parameter classes over mems, dispatching on the parameter count to
// pick the ABI.
func (h *Harness) llvmArgs(params []interp.ParamKind, mems []*interp.Mem, args []interp.Arg) ([]interp.Arg, error) {
	descParams := 0
	for _, t := range h.shapes {
		descParams += translate.DescriptorParams(len(t.Shape))
	}
	switch len(params) {
	case len(h.shapes):
		for _, m := range mems {
			args = append(args, interp.PtrArg(m, 0))
		}
		return args, nil
	case descParams:
		for ai, t := range h.shapes {
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
		h.Top, len(params), len(h.shapes), descParams)
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

// compareMem checks one output allocation against the reference argument,
// decoding its elements in place.
func (h *Harness) compareMem(ai int, mem *interp.Mem) error {
	t := h.shapes[ai]
	n := int(t.NumElements())
	b := mem.Bytes
	switch {
	case t.Elem.IsFloat() && t.Elem.Width == 32:
		for i := 0; i < n; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
			want := float32(h.refF[ai][i])
			if !interp.ULPEqual32(got, want, h.MaxULP) {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(want),
					ULP: interp.ULPDiff32(got, want)}
			}
		}
	case t.Elem.IsFloat():
		for i := 0; i < n; i++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			want := h.refF[ai][i]
			if !interp.ULPEqual(got, want, h.MaxULP) {
				return &Divergence{Arg: ai, Index: i, Got: got, Want: want,
					ULP: interp.ULPDiff64(got, want)}
			}
		}
	case t.Elem.Width == 32:
		for i := 0; i < n; i++ {
			got := int32(binary.LittleEndian.Uint32(b[i*4:]))
			if int64(got) != h.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(h.refI[ai][i]), Int: true}
			}
		}
	default:
		for i := 0; i < n; i++ {
			got := int64(binary.LittleEndian.Uint64(b[i*8:]))
			if got != h.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(h.refI[ai][i]), Int: true}
			}
		}
	}
	return nil
}

// compareFloat checks a staged MLIR float element at the element width.
func (h *Harness) compareFloat(ai, i int, got float64, elem *mlir.Type) error {
	want := h.refF[ai][i]
	if elem.Width == 32 {
		g, w := float32(got), float32(want)
		if !interp.ULPEqual32(g, w, h.MaxULP) {
			return &Divergence{Arg: ai, Index: i, Got: got, Want: want, ULP: interp.ULPDiff32(g, w)}
		}
		return nil
	}
	if !interp.ULPEqual(got, want, h.MaxULP) {
		return &Divergence{Arg: ai, Index: i, Got: got, Want: want, ULP: interp.ULPDiff64(got, want)}
	}
	return nil
}
