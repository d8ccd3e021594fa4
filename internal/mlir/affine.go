package mlir

import (
	"fmt"
	"strconv"
)

// AffineExprKind discriminates affine expression nodes.
type AffineExprKind int

const (
	// AffineDim is a loop dimension d<i>.
	AffineDim AffineExprKind = iota
	// AffineSym is a symbol s<i>.
	AffineSym
	// AffineConst is an integer constant.
	AffineConst
	// AffineAdd is lhs + rhs.
	AffineAdd
	// AffineMul is lhs * rhs (rhs must stay affine: one side constant).
	AffineMul
	// AffineMod is lhs mod rhs (rhs constant > 0).
	AffineMod
	// AffineFloorDiv is lhs floordiv rhs (rhs constant > 0).
	AffineFloorDiv
	// AffineCeilDiv is lhs ceildiv rhs (rhs constant > 0).
	AffineCeilDiv
)

// AffineExpr is an immutable affine expression tree.
type AffineExpr struct {
	Kind     AffineExprKind
	Pos      int   // dim/symbol index
	Val      int64 // constant value
	LHS, RHS *AffineExpr
}

// Dim returns the affine dimension expression d<pos>.
func Dim(pos int) *AffineExpr { return &AffineExpr{Kind: AffineDim, Pos: pos} }

// Sym returns the affine symbol expression s<pos>.
func Sym(pos int) *AffineExpr { return &AffineExpr{Kind: AffineSym, Pos: pos} }

// Const returns the affine constant expression.
func Const(v int64) *AffineExpr { return &AffineExpr{Kind: AffineConst, Val: v} }

// IsConst reports whether e is a constant expression.
func (e *AffineExpr) IsConst() bool { return e.Kind == AffineConst }

// Add returns the simplified sum of two affine expressions.
func Add(l, r *AffineExpr) *AffineExpr {
	if l.IsConst() && r.IsConst() {
		return Const(l.Val + r.Val)
	}
	if l.IsConst() && l.Val == 0 {
		return r
	}
	if r.IsConst() && r.Val == 0 {
		return l
	}
	// Canonicalize constants to the right.
	if l.IsConst() {
		l, r = r, l
	}
	return &AffineExpr{Kind: AffineAdd, LHS: l, RHS: r}
}

// Mul returns the simplified product; at least one side must be constant to
// remain affine, and non-affine products panic.
func Mul(l, r *AffineExpr) *AffineExpr {
	if l.IsConst() && r.IsConst() {
		return Const(l.Val * r.Val)
	}
	if l.IsConst() {
		l, r = r, l
	}
	if !r.IsConst() {
		panic("mlir: non-affine multiplication")
	}
	switch r.Val {
	case 0:
		return Const(0)
	case 1:
		return l
	}
	return &AffineExpr{Kind: AffineMul, LHS: l, RHS: r}
}

// Mod returns l mod m for a positive constant m.
func Mod(l *AffineExpr, m int64) *AffineExpr {
	if m <= 0 {
		panic("mlir: mod by non-positive constant")
	}
	if l.IsConst() {
		return Const(floorMod(l.Val, m))
	}
	return &AffineExpr{Kind: AffineMod, LHS: l, RHS: Const(m)}
}

// FloorDiv returns l floordiv d for a positive constant d.
func FloorDiv(l *AffineExpr, d int64) *AffineExpr {
	if d <= 0 {
		panic("mlir: floordiv by non-positive constant")
	}
	if d == 1 {
		return l
	}
	if l.IsConst() {
		return Const(floorDiv(l.Val, d))
	}
	return &AffineExpr{Kind: AffineFloorDiv, LHS: l, RHS: Const(d)}
}

// CeilDiv returns l ceildiv d for a positive constant d.
func CeilDiv(l *AffineExpr, d int64) *AffineExpr {
	if d <= 0 {
		panic("mlir: ceildiv by non-positive constant")
	}
	if d == 1 {
		return l
	}
	if l.IsConst() {
		return Const(ceilDiv(l.Val, d))
	}
	return &AffineExpr{Kind: AffineCeilDiv, LHS: l, RHS: Const(d)}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }

func floorMod(a, b int64) int64 { return a - floorDiv(a, b)*b }

// Eval evaluates the expression for concrete dim and symbol values.
func (e *AffineExpr) Eval(dims, syms []int64) int64 {
	switch e.Kind {
	case AffineDim:
		return dims[e.Pos]
	case AffineSym:
		return syms[e.Pos]
	case AffineConst:
		return e.Val
	case AffineAdd:
		return e.LHS.Eval(dims, syms) + e.RHS.Eval(dims, syms)
	case AffineMul:
		return e.LHS.Eval(dims, syms) * e.RHS.Eval(dims, syms)
	case AffineMod:
		return floorMod(e.LHS.Eval(dims, syms), e.RHS.Eval(dims, syms))
	case AffineFloorDiv:
		return floorDiv(e.LHS.Eval(dims, syms), e.RHS.Eval(dims, syms))
	case AffineCeilDiv:
		return ceilDiv(e.LHS.Eval(dims, syms), e.RHS.Eval(dims, syms))
	}
	panic("mlir: invalid affine expression kind")
}

// Equal reports structural equality of affine expressions.
func (e *AffineExpr) Equal(o *AffineExpr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil || e.Kind != o.Kind {
		return false
	}
	switch e.Kind {
	case AffineDim, AffineSym:
		return e.Pos == o.Pos
	case AffineConst:
		return e.Val == o.Val
	default:
		return e.LHS.Equal(o.LHS) && e.RHS.Equal(o.RHS)
	}
}

// MaxDim returns the largest dimension index referenced, or -1.
func (e *AffineExpr) MaxDim() int {
	switch e.Kind {
	case AffineDim:
		return e.Pos
	case AffineSym, AffineConst:
		return -1
	default:
		l, r := e.LHS.MaxDim(), e.RHS.MaxDim()
		if l > r {
			return l
		}
		return r
	}
}

// MaxSym returns the largest symbol index referenced, or -1.
func (e *AffineExpr) MaxSym() int {
	switch e.Kind {
	case AffineSym:
		return e.Pos
	case AffineDim, AffineConst:
		return -1
	default:
		l, r := e.LHS.MaxSym(), e.RHS.MaxSym()
		if l > r {
			return l
		}
		return r
	}
}

// String renders the expression in MLIR affine syntax.
func (e *AffineExpr) String() string { return string(e.appendTo(nil)) }

// appendTo appends the expression's text to b.
func (e *AffineExpr) appendTo(b []byte) []byte {
	op := ""
	switch e.Kind {
	case AffineDim:
		return strconv.AppendInt(append(b, 'd'), int64(e.Pos), 10)
	case AffineSym:
		return strconv.AppendInt(append(b, 's'), int64(e.Pos), 10)
	case AffineConst:
		return strconv.AppendInt(b, e.Val, 10)
	case AffineAdd:
		if e.RHS.IsConst() && e.RHS.Val < 0 {
			b = e.LHS.appendTo(append(b, '('))
			b = strconv.AppendInt(append(b, " - "...), -e.RHS.Val, 10)
			return append(b, ')')
		}
		op = " + "
	case AffineMul:
		op = " * "
	case AffineMod:
		op = " mod "
	case AffineFloorDiv:
		op = " floordiv "
	case AffineCeilDiv:
		op = " ceildiv "
	default:
		return append(b, "<invalid-affine-expr>"...)
	}
	b = e.LHS.appendTo(append(b, '('))
	b = e.RHS.appendTo(append(b, op...))
	return append(b, ')')
}

// AffineMap is a multi-result affine map (d0..dN, s0..sM) -> (exprs...).
type AffineMap struct {
	NumDims int
	NumSyms int
	Exprs   []*AffineExpr
}

// NewMap builds an affine map, validating that every expression stays within
// the declared dim/symbol counts.
func NewMap(numDims, numSyms int, exprs ...*AffineExpr) *AffineMap {
	for _, e := range exprs {
		if e.MaxDim() >= numDims {
			panic(fmt.Sprintf("mlir: expr %s references dim beyond %d", e, numDims))
		}
		if e.MaxSym() >= numSyms {
			panic(fmt.Sprintf("mlir: expr %s references symbol beyond %d", e, numSyms))
		}
	}
	return &AffineMap{NumDims: numDims, NumSyms: numSyms, Exprs: exprs}
}

// ConstantMap returns the zero-input map () -> (v).
func ConstantMap(v int64) *AffineMap { return NewMap(0, 0, Const(v)) }

// IdentityMap returns the map (d0..dN-1) -> (d0..dN-1).
func IdentityMap(n int) *AffineMap {
	exprs := make([]*AffineExpr, n)
	for i := range exprs {
		exprs[i] = Dim(i)
	}
	return NewMap(n, 0, exprs...)
}

// IsSingleConstant reports whether the map has exactly one constant result
// and returns its value.
func (m *AffineMap) IsSingleConstant() (int64, bool) {
	if len(m.Exprs) == 1 && m.Exprs[0].IsConst() {
		return m.Exprs[0].Val, true
	}
	return 0, false
}

// IsIdentity reports whether the map is the identity over its dims.
func (m *AffineMap) IsIdentity() bool {
	if m.NumSyms != 0 || len(m.Exprs) != m.NumDims {
		return false
	}
	for i, e := range m.Exprs {
		if e.Kind != AffineDim || e.Pos != i {
			return false
		}
	}
	return true
}

// Eval evaluates every result expression.
func (m *AffineMap) Eval(dims, syms []int64) []int64 {
	if len(dims) != m.NumDims || len(syms) != m.NumSyms {
		panic(fmt.Sprintf("mlir: map eval arity mismatch: got %d dims %d syms, want %d/%d",
			len(dims), len(syms), m.NumDims, m.NumSyms))
	}
	out := make([]int64, len(m.Exprs))
	for i, e := range m.Exprs {
		out[i] = e.Eval(dims, syms)
	}
	return out
}

// Equal reports structural map equality.
func (m *AffineMap) Equal(o *AffineMap) bool {
	if m == o {
		return true
	}
	if m == nil || o == nil || m.NumDims != o.NumDims || m.NumSyms != o.NumSyms ||
		len(m.Exprs) != len(o.Exprs) {
		return false
	}
	for i := range m.Exprs {
		if !m.Exprs[i].Equal(o.Exprs[i]) {
			return false
		}
	}
	return true
}

// String renders the map as (d0, d1)[s0] -> (expr, ...).
func (m *AffineMap) String() string { return string(m.appendTo(nil)) }

// appendTo appends the map's text to b.
func (m *AffineMap) appendTo(b []byte) []byte {
	b = append(b, '(')
	for i := 0; i < m.NumDims; i++ {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(append(b, 'd'), int64(i), 10)
	}
	b = append(b, ')')
	if m.NumSyms > 0 {
		b = append(b, '[')
		for i := 0; i < m.NumSyms; i++ {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(append(b, 's'), int64(i), 10)
		}
		b = append(b, ']')
	}
	b = append(b, " -> ("...)
	for i, e := range m.Exprs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = e.appendTo(b)
	}
	return append(b, ')')
}
