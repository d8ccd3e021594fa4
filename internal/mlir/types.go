// Package mlir implements a compact multi-level intermediate representation
// modeled on MLIR: ops with regions, SSA values, dialect attributes, affine
// expressions, and a textual format that round-trips through the printer and
// parser. It provides the affine/scf/cf/memref/arith/func dialect subset the
// HLS adaptor flow needs.
package mlir

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TypeKind discriminates the supported type constructors.
type TypeKind int

const (
	// KindInt is a signless integer type iN.
	KindInt TypeKind = iota
	// KindFloat is an IEEE float type f32 or f64.
	KindFloat
	// KindIndex is the platform index type.
	KindIndex
	// KindMemRef is a shaped buffer type memref<...x elem>.
	KindMemRef
	// KindNone is the unit type used by ops without a meaningful result.
	KindNone
)

// Type is a structural MLIR type. Types are immutable after construction;
// compare them with Equal, not pointer identity.
type Type struct {
	Kind  TypeKind
	Width int     // bit width for KindInt and KindFloat
	Elem  *Type   // element type for KindMemRef
	Shape []int64 // memref dimensions; DynamicDim marks a dynamic extent

	// text is the type's spelling, set by the constructor that builds the
	// type and never written after, so printing allocates nothing and
	// concurrent readers need no lock.
	text string
}

// DynamicDim marks a dynamic memref dimension.
const DynamicDim = int64(-1)

var (
	i1Type    = &Type{Kind: KindInt, Width: 1, text: "i1"}
	i32Type   = &Type{Kind: KindInt, Width: 32, text: "i32"}
	i64Type   = &Type{Kind: KindInt, Width: 64, text: "i64"}
	f32Type   = &Type{Kind: KindFloat, Width: 32, text: "f32"}
	f64Type   = &Type{Kind: KindFloat, Width: 64, text: "f64"}
	indexType = &Type{Kind: KindIndex, text: "index"}
	noneType  = &Type{Kind: KindNone, text: "none"}
)

// I1 returns the 1-bit integer (boolean) type.
func I1() *Type { return i1Type }

// I32 returns the 32-bit integer type.
func I32() *Type { return i32Type }

// I64 returns the 64-bit integer type.
func I64() *Type { return i64Type }

// intTypes interns the off-mainline integer widths (the common ones are
// package singletons). Types are immutable, so sharing is sound.
var intTypes sync.Map // width -> *Type

// IntType returns the signless integer type of the given bit width.
func IntType(width int) *Type {
	switch width {
	case 1:
		return i1Type
	case 32:
		return i32Type
	case 64:
		return i64Type
	}
	if t, ok := intTypes.Load(width); ok {
		return t.(*Type)
	}
	t, _ := intTypes.LoadOrStore(width, &Type{Kind: KindInt, Width: width,
		text: "i" + strconv.Itoa(width)})
	return t.(*Type)
}

// F32 returns the 32-bit float type.
func F32() *Type { return f32Type }

// F64 returns the 64-bit float type.
func F64() *Type { return f64Type }

// FloatType returns the float type of the given bit width (32 or 64).
func FloatType(width int) *Type {
	if width == 64 {
		return f64Type
	}
	return f32Type
}

// Index returns the index type.
func Index() *Type { return indexType }

// None returns the unit type.
func None() *Type { return noneType }

// memrefTypes caches memref types by element and shape: a kernel's parse
// touches the same handful of buffer types thousands of times, and a hit
// allocates nothing. Types compare with Equal, so the table is only a
// cache: it has a fixed number of slots, and MLIR from an untrusted client
// cannot grow it. The slots form memrefSets sets of memrefWays; a type
// hashes to one set and takes an empty way there, or the set's next way in
// turn, so up to memrefWays types that share a set stay resident together.
var memrefTypes [memrefSlots]atomic.Pointer[Type]

// memrefNext is each set's next way to replace when the set is full.
var memrefNext [memrefSets]atomic.Uint32

// The memref type cache's shape.
const (
	memrefSlots = 256
	memrefWays  = 4
	memrefSets  = memrefSlots / memrefWays
)

// memrefSet returns the set a memref type hashes to: FNV-1a over the
// element's kind and width and the dimensions, finalized (murmur3's fmix64)
// so every bit of every dimension reaches the set index.
func memrefSet(shape []int64, elem *Type) int {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(elem.Kind))
	mix(uint64(elem.Width))
	for _, d := range shape {
		mix(uint64(d))
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % memrefSets)
}

// MemRef returns the memref type with the given shape and element type.
func MemRef(shape []int64, elem *Type) *Type {
	set := memrefSet(shape, elem)
	ways := memrefTypes[set*memrefWays : (set+1)*memrefWays]
	for i := range ways {
		if t := ways[i].Load(); t != nil && t.Elem == elem && slices.Equal(t.Shape, shape) {
			return t
		}
	}
	s := make([]int64, len(shape))
	copy(s, shape)
	t := &Type{Kind: KindMemRef, Elem: elem, Shape: s}
	t.text = t.spell()
	for i := range ways {
		if ways[i].CompareAndSwap(nil, t) {
			return t
		}
	}
	ways[memrefNext[set].Add(1)%memrefWays].Store(t)
	return t
}

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == KindInt }

// IsFloat reports whether t is a float type.
func (t *Type) IsFloat() bool { return t != nil && t.Kind == KindFloat }

// IsIndex reports whether t is the index type.
func (t *Type) IsIndex() bool { return t != nil && t.Kind == KindIndex }

// IsMemRef reports whether t is a memref type.
func (t *Type) IsMemRef() bool { return t != nil && t.Kind == KindMemRef }

// IsIntOrIndex reports whether t is an integer or index type.
func (t *Type) IsIntOrIndex() bool { return t.IsInt() || t.IsIndex() }

// HasStaticShape reports whether every memref dimension is static.
func (t *Type) HasStaticShape() bool {
	if !t.IsMemRef() {
		return false
	}
	for _, d := range t.Shape {
		if d == DynamicDim {
			return false
		}
	}
	return true
}

// NumElements returns the product of the static memref dimensions.
// It panics on dynamic shapes.
func (t *Type) NumElements() int64 {
	if !t.HasStaticShape() {
		panic("mlir: NumElements on non-static type " + t.String())
	}
	n := int64(1)
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindInt, KindFloat:
		return t.Width == o.Width
	case KindIndex, KindNone:
		return true
	case KindMemRef:
		if len(t.Shape) != len(o.Shape) || !t.Elem.Equal(o.Elem) {
			return false
		}
		for i := range t.Shape {
			if t.Shape[i] != o.Shape[i] {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the type in MLIR syntax (i32, f64, index, memref<4x8xf32>).
func (t *Type) String() string {
	if t == nil {
		return "<nil-type>"
	}
	if t.text != "" {
		return t.text
	}
	return t.spell()
}

// spell builds the type's text.
func (t *Type) spell() string {
	switch t.Kind {
	case KindInt:
		return "i" + strconv.Itoa(t.Width)
	case KindFloat:
		return "f" + strconv.Itoa(t.Width)
	case KindIndex:
		return "index"
	case KindNone:
		return "none"
	case KindMemRef:
		var sb strings.Builder
		sb.WriteString("memref<")
		for _, d := range t.Shape {
			if d == DynamicDim {
				sb.WriteString("?x")
			} else {
				sb.WriteString(strconv.FormatInt(d, 10))
				sb.WriteString("x")
			}
		}
		sb.WriteString(t.Elem.String())
		sb.WriteString(">")
		return sb.String()
	}
	return "<unknown-type>"
}
