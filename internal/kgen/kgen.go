// Package kgen is a seeded, deterministic generator of well-defined HLS
// kernels in the affine subset both flows accept: random loop nests with
// affine accesses, mixed int/float arithmetic guarded against undefined
// behavior by construction, and random-but-valid directive sets sampled
// from the DSE space. It manufactures the adversarial inputs the
// differential-fuzzing campaign (cmd/hls-fuzz) feeds through the oracle,
// and populates the shared fuzz-seed corpus the parser/flow/journal fuzz
// targets start from.
//
// Determinism is a hard contract: the same seed yields a byte-identical
// kernel (module text, directive set, and label), across runs and
// platforms. Everything random flows through one math/rand source seeded
// by the caller; no map iteration feeds generation.
//
// Well-definedness is structural, not sampled around:
//
//   - every affine access is in bounds, because loop ranges are derived
//     from the extents of the arrays they index (stencil offsets shrink
//     the range by their margin);
//   - there is no integer division, and float division only divides by
//     constants of magnitude >= 1;
//   - integer terms stay far below 31 bits, so the i64 adaptor path and
//     the C frontend's int agree exactly;
//   - stored float expressions are damped convex combinations (statement
//     coefficients sum to 1) and reduction statements are budgeted, so
//     values never overflow to Inf/NaN no matter how nests compose.
package kgen

import (
	"fmt"
	"math/rand"

	"repro/internal/flow"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/mlir/passes"
)

// The bounds on generated program shapes (the corpus shapes).
const (
	// maxArrays bounds the memref argument count.
	maxArrays = 3
	// minExtent and maxExtent bound every array dimension.
	minExtent, maxExtent = 4, 8
	// maxNests bounds the top-level loop nests.
	maxNests = 2
	// maxStmts bounds the statements per innermost body.
	maxStmts = 2
	// maxRedStmts budgets gemm-style true-accumulation statements per
	// kernel; each one can square the value bound, so the budget is what
	// keeps the overflow-freedom argument closed.
	maxRedStmts = 3
)

// Kernel is one generated program: the pristine module text (the
// deterministic artifact), plus a directive configuration sampled from
// the DSE space under the same seed.
type Kernel struct {
	// Name is the top function ("kg<seed>"), a valid C identifier so the
	// C++ flow emits it unchanged.
	Name string
	// Seed reproduces the kernel: Generate(Seed) is byte-identical.
	Seed int64
	// MLIR is the pristine module text; Build parses it.
	MLIR string
	// Directives is the sampled configuration, valid for both flows.
	Directives flow.Directives
	// DirectiveLabel names the configuration in DSE-label style.
	DirectiveLabel string
}

// Build parses a fresh module from the kernel text. Flows mutate their
// input, so every call constructs a new module (the engine's fresh-module
// contract). A nil return means the generator emitted text its own parser
// rejects — a kgen bug the caller surfaces, not a fuzzing finding.
func (k Kernel) Build() *mlir.Module {
	m, err := parser.Parse(k.MLIR)
	if err != nil {
		return nil
	}
	return m
}

// Generate produces the kernel for one seed.
func Generate(seed int64) Kernel {
	rng := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("kg%d", uint64(seed))
	g := &gen{rng: rng}
	m := g.module(name)
	d, label := sampleDirectives(rng)
	return Kernel{
		Name:           name,
		Seed:           seed,
		MLIR:           m.Print(),
		Directives:     d,
		DirectiveLabel: label,
	}
}

// sampleDirectives draws one random-but-valid directive configuration
// from the DSE space axes (pipeline II, unroll, partition, flatten) using
// the caller's source, mirroring dse.Space's value ranges.
func sampleDirectives(rng *rand.Rand) (flow.Directives, string) {
	var d flow.Directives
	label := "base"
	if rng.Intn(2) == 0 {
		d.Pipeline = true
		d.II = 1 + rng.Intn(4)
		label = fmt.Sprintf("pipeII%d", d.II)
		if rng.Intn(4) == 0 {
			d.Flatten = true
			label += "+flat"
		}
	} else if rng.Intn(2) == 0 {
		d.Unroll = 2 + rng.Intn(3)
		label = fmt.Sprintf("unroll%d", d.Unroll)
	}
	switch rng.Intn(3) {
	case 1:
		f := 2 + rng.Intn(3)
		d.Partition = &passes.PartitionSpec{Kind: "cyclic", Factor: f, Dim: 0}
		label += fmt.Sprintf("+cyc%d", f)
	case 2:
		f := 2 + rng.Intn(3)
		d.Partition = &passes.PartitionSpec{Kind: "block", Factor: f, Dim: 0}
		label += fmt.Sprintf("+blk%d", f)
	}
	return d, label
}

// arr is one memref argument and its static shape.
type arr struct {
	v    *mlir.Value
	dims []int64
}

// scopeIV is an in-scope induction variable with its static value range
// [lo, hi) — the fact every in-bounds argument rests on. For triangular
// loops the range is the conservative rectangular hull.
type scopeIV struct {
	v      *mlir.Value
	lo, hi int64
}

type gen struct {
	rng      *rand.Rand
	arrs     []*arr
	redStmts int           // reduction statements emitted so far
	written  map[*arr]bool // arrays already targeted by an earlier nest
}

// module builds the whole program: argument arrays, then 1..maxNests
// top-level nests, then return.
func (g *gen) module(name string) *mlir.Module {
	narr := 1 + g.rng.Intn(maxArrays)
	types := make([]*mlir.Type, narr)
	shapes := make([][]int64, narr)
	for i := range types {
		rank := 1 + g.rng.Intn(2)
		dims := make([]int64, rank)
		for d := range dims {
			dims[d] = g.extent()
		}
		shapes[i] = dims
		types[i] = mlir.MemRef(dims, mlir.F32())
	}
	m := mlir.NewModule()
	f, args := m.AddFunc(name, types, nil)
	b := mlir.NewBuilder(mlir.FuncBody(f))
	for i, a := range args {
		g.arrs = append(g.arrs, &arr{v: a, dims: shapes[i]})
	}
	g.written = make(map[*arr]bool)
	nests := 1 + g.rng.Intn(maxNests)
	for i := 0; i < nests; i++ {
		g.nest(b)
	}
	b.Return()
	return m
}

func (g *gen) extent() int64 {
	return minExtent + g.rng.Int63n(maxExtent-minExtent+1)
}

// nest emits one top-level loop nest writing a randomly chosen
// destination array. The loops cover the destination's dimensions
// exactly (shrunk by the stencil margin when offsets are in play), so
// every store is in bounds and — absent a reduction loop — every cell is
// visited once per nest.
func (g *gen) nest(b *mlir.Builder) {
	dst := g.arrs[g.rng.Intn(len(g.arrs))]
	margin := int64(0)
	if g.rng.Intn(2) == 0 {
		margin = 1 // leave room for ±1 stencil offsets on every axis
	}
	kind := g.rng.Intn(3) // 0 = map, 1 = reduce, 2 = stencil-flavored map
	if kind == 1 && g.redStmts >= maxRedStmts {
		kind = 0
	}

	// Dead-store avoidance keeps every statement observable at the
	// outputs (a miscompile anywhere must be able to diverge the final
	// state): a statement after the first, or the first statement of a
	// nest re-targeting an already-written array, must read the current
	// cell, chaining earlier stores into the value that survives.
	rewrite := g.written[dst]
	g.written[dst] = true
	var ivs []scopeIV
	var body func(*mlir.Builder)
	body = func(bb *mlir.Builder) {
		switch kind {
		case 1:
			g.reduceStmt(bb, dst, ivs, rewrite)
		default:
			n := 1 + g.rng.Intn(maxStmts)
			for i := 0; i < n; i++ {
				g.mapStmt(bb, dst, ivs, margin, rewrite || i > 0)
			}
		}
	}

	// Build the loops inside-out via closures: loop d wraps loop d+1.
	var emit func(bb *mlir.Builder, d int)
	emit = func(bb *mlir.Builder, d int) {
		if d == len(dst.dims) {
			body(bb)
			return
		}
		lo, hi := margin, dst.dims[d]-margin
		// Triangular inner bound (trmm/syrk shape): j < i+1, valid when
		// the outer range fits inside this dimension.
		if d > 0 && margin == 0 && g.rng.Intn(4) == 0 && ivs[d-1].hi <= dst.dims[d] {
			outer := ivs[d-1]
			bb.AffineForUpTo(mlir.NewMap(1, 0, mlir.Add(mlir.Dim(0), mlir.Const(1))),
				[]*mlir.Value{outer.v}, func(bb *mlir.Builder, iv *mlir.Value) {
					ivs = append(ivs, scopeIV{v: iv, lo: 0, hi: outer.hi})
					emit(bb, d+1)
					ivs = ivs[:len(ivs)-1]
				})
			return
		}
		bb.AffineForConst(lo, hi, 1, func(bb *mlir.Builder, iv *mlir.Value) {
			ivs = append(ivs, scopeIV{v: iv, lo: lo, hi: hi})
			emit(bb, d+1)
			ivs = ivs[:len(ivs)-1]
		})
	}
	emit(b, 0)
}

// mapStmt emits dst[ivs] = expr or the damped accumulation
// dst[ivs] = 0.5*dst[ivs] + 0.5*expr. Both keep |cell| bounded by the
// maximum leaf magnitude, so repeated sweeps (time loops, revisits
// through constant indices) never amplify values.
func (g *gen) mapStmt(b *mlir.Builder, dst *arr, ivs []scopeIV, margin int64, damp bool) {
	idx := g.storeIndex(b, dst, ivs)
	rhs := g.sumExpr(b, ivs, margin)
	if damp || g.rng.Intn(3) == 0 {
		cur := b.AffineLoad(dst.v, idx...)
		half := b.ConstantFloat(0.5, mlir.F32())
		rhs = b.AddF(b.MulF(half, cur), b.MulF(half, rhs))
	}
	b.AffineStore(rhs, dst.v, idx...)
}

// reduceStmt emits the gemm pattern: an init statement at this level,
// then an inner reduction loop accumulating a damped product into the
// same cell. The cell is visited once per nest (the store index covers
// every enclosing loop), so the accumulation is bounded by the trip
// count of the one reduction loop.
func (g *gen) reduceStmt(b *mlir.Builder, dst *arr, ivs []scopeIV, rewrite bool) {
	idx := g.storeIndex(b, dst, ivs)
	// Init: dst = c or dst = c*dst (beta-scaling; forced when an earlier
	// nest wrote dst, so its stores stay live), once per cell.
	c := b.ConstantFloat(g.coeff(), mlir.F32())
	if !rewrite && g.rng.Intn(2) == 0 {
		b.AffineStore(c, dst.v, idx...)
	} else {
		b.AffineStore(b.MulF(c, b.AffineLoad(dst.v, idx...)), dst.v, idx...)
	}
	g.redStmts++
	trip := 2 + g.rng.Int63n(7)
	eighth := b.ConstantFloat(0.125, mlir.F32())
	b.AffineForConst(0, trip, 1, func(b *mlir.Builder, k *mlir.Value) {
		inner := append(append([]scopeIV(nil), ivs...), scopeIV{v: k, lo: 0, hi: trip})
		p := b.MulF(g.leaf(b, inner, 0), g.leaf(b, inner, 0))
		cur := b.AffineLoad(dst.v, idx...)
		b.AffineStore(b.AddF(cur, b.MulF(eighth, p)), dst.v, idx...)
	})
}

// storeIndex maps the destination's dimensions to the enclosing loop
// IVs, in order — the invariant that makes stores in bounds and cell
// visits unique.
func (g *gen) storeIndex(_ *mlir.Builder, dst *arr, ivs []scopeIV) []*mlir.Value {
	idx := make([]*mlir.Value, len(dst.dims))
	for d := range dst.dims {
		idx[d] = ivs[d].v
	}
	return idx
}

// sumExpr builds a damped convex combination: sum of 1..3 terms whose
// coefficients sum to 1, each term a product of one or two leaves. With
// every leaf bounded, the result is bounded by the largest leaf product.
func (g *gen) sumExpr(b *mlir.Builder, ivs []scopeIV, margin int64) *mlir.Value {
	weights := [][]float64{
		{1},
		{0.5, 0.5},
		{0.75, 0.25},
		{0.5, 0.25, 0.25},
	}
	ws := weights[g.rng.Intn(len(weights))]
	var sum *mlir.Value
	for _, w := range ws {
		if g.rng.Intn(4) == 0 {
			w = -w
		}
		term := b.MulF(b.ConstantFloat(w, mlir.F32()), g.product(b, ivs, margin))
		if sum == nil {
			sum = term
		} else {
			sum = b.AddF(sum, term)
		}
	}
	if g.rng.Intn(6) == 0 {
		// A guarded divide: |divisor| >= 1 keeps the damping intact.
		divisors := []float64{2, 4, -2, 1.5}
		sum = b.DivF(sum, b.ConstantFloat(divisors[g.rng.Intn(len(divisors))], mlir.F32()))
	}
	return sum
}

// product is one or two leaves multiplied (values stay bounded since
// every leaf is).
func (g *gen) product(b *mlir.Builder, ivs []scopeIV, margin int64) *mlir.Value {
	l := g.loadOrLeaf(b, ivs, margin)
	if g.rng.Intn(3) == 0 {
		return b.MulF(l, g.loadOrLeaf(b, ivs, margin))
	}
	return l
}

func (g *gen) loadOrLeaf(b *mlir.Builder, ivs []scopeIV, margin int64) *mlir.Value {
	if g.rng.Intn(5) == 0 {
		return g.leaf(b, ivs, margin)
	}
	return g.load(b, ivs, margin)
}

// leaf is a non-load operand: a float constant, or a normalized
// mixed-integer term (index arithmetic cast to float and scaled below
// magnitude one — exercising index_cast/addi/muli/sitofp through every
// layer while keeping both flows' integer widths equivalent).
func (g *gen) leaf(b *mlir.Builder, ivs []scopeIV, margin int64) *mlir.Value {
	switch g.rng.Intn(3) {
	case 0:
		return b.ConstantFloat(g.coeff(), mlir.F32())
	case 1:
		iv := ivs[g.rng.Intn(len(ivs))]
		x := b.IndexCast(iv.v, mlir.I64())
		if g.rng.Intn(2) == 0 {
			x = b.AddI(x, b.ConstantInt(int64(1+g.rng.Intn(7)), mlir.I64()))
		}
		if g.rng.Intn(2) == 0 {
			x = b.MulI(x, b.ConstantInt(int64(1+g.rng.Intn(4)), mlir.I64()))
		}
		// iv < maxExtent, so |x| <= (maxExtent+7)*4 < 64; 1/64 normalizes
		// the term under the damping bound.
		return b.MulF(b.SIToFP(x, mlir.F32()), b.ConstantFloat(1.0/64, mlir.F32()))
	default:
		return g.load(b, ivs, margin)
	}
}

func (g *gen) coeff() float64 {
	consts := []float64{0.5, 0.25, 0.75, 1.0, -0.5, -0.25, 0.125}
	return consts[g.rng.Intn(len(consts))]
}

// load reads a random array at an in-bounds affine index: per dimension,
// an in-scope IV whose range fits the extent (with an optional ±1 offset
// when both the IV range and the stencil margin allow), else a constant
// index inside the extent.
func (g *gen) load(b *mlir.Builder, ivs []scopeIV, margin int64) *mlir.Value {
	src := g.arrs[g.rng.Intn(len(g.arrs))]
	exprs := make([]*mlir.AffineExpr, len(src.dims))
	var operands []*mlir.Value
	plain := true
	for d, e := range src.dims {
		var fits []scopeIV
		for _, iv := range ivs {
			if iv.hi <= e {
				fits = append(fits, iv)
			}
		}
		if len(fits) == 0 {
			exprs[d] = mlir.Const(g.rng.Int63n(e))
			plain = false
			continue
		}
		iv := fits[g.rng.Intn(len(fits))]
		off := int64(0)
		if margin > 0 && g.rng.Intn(2) == 0 {
			// Valid offsets: lo+off >= 0 and hi-1+off < e.
			var ok []int64
			for _, c := range []int64{-1, 1} {
				if iv.lo+c >= 0 && iv.hi-1+c < e {
					ok = append(ok, c)
				}
			}
			if len(ok) > 0 {
				off = ok[g.rng.Intn(len(ok))]
			}
		}
		pos := len(operands)
		operands = append(operands, iv.v)
		if off == 0 {
			exprs[d] = mlir.Dim(pos)
		} else {
			exprs[d] = mlir.Add(mlir.Dim(pos), mlir.Const(off))
			plain = false
		}
	}
	if plain && len(operands) == len(src.dims) {
		return b.AffineLoad(src.v, operands...)
	}
	return b.AffineLoadMap(src.v, mlir.NewMap(len(operands), 0, exprs...), operands...)
}
