// Package llvm implements a compact LLVM-like intermediate representation:
// typed SSA instructions in basic blocks, functions and modules, a textual
// .ll printer/parser pair, and loop metadata. It supports both modern
// opaque-pointer spelling and the typed-pointer spelling older HLS toolchain
// LLVMs require — the version gap the adaptor closes.
package llvm

import (
	"fmt"
	"strings"
	"sync"
)

// TypeKind discriminates LLVM types.
type TypeKind int

const (
	// KindVoid is the void type.
	KindVoid TypeKind = iota
	// KindInt is an integer type iN.
	KindInt
	// KindFloat is the 32-bit float type.
	KindFloat
	// KindDouble is the 64-bit double type.
	KindDouble
	// KindPtr is a pointer; Elem records the pointee for typed-pointer
	// printing (it may be nil in pure opaque modules).
	KindPtr
	// KindArray is [N x Elem].
	KindArray
	// KindStruct is { fields... }.
	KindStruct
)

// Type is a structural LLVM type.
type Type struct {
	Kind   TypeKind
	Bits   int
	Elem   *Type
	N      int64
	Fields []*Type
}

var (
	voidType   = &Type{Kind: KindVoid}
	i1Type     = &Type{Kind: KindInt, Bits: 1}
	i8Type     = &Type{Kind: KindInt, Bits: 8}
	i32Type    = &Type{Kind: KindInt, Bits: 32}
	i64Type    = &Type{Kind: KindInt, Bits: 64}
	floatType  = &Type{Kind: KindFloat, Bits: 32}
	doubleType = &Type{Kind: KindDouble, Bits: 64}
)

// Void returns the void type.
func Void() *Type { return voidType }

// I1 returns i1.
func I1() *Type { return i1Type }

// I8 returns i8.
func I8() *Type { return i8Type }

// I32 returns i32.
func I32() *Type { return i32Type }

// I64 returns i64.
func I64() *Type { return i64Type }

// intTypes interns the off-mainline integer widths (the common ones are
// package singletons). Types are immutable after construction, so sharing
// one node per width is sound and keeps parse-heavy paths allocation-free.
var intTypes sync.Map // bits -> *Type

// IntT returns the iN type.
func IntT(bits int) *Type {
	switch bits {
	case 1:
		return i1Type
	case 8:
		return i8Type
	case 32:
		return i32Type
	case 64:
		return i64Type
	}
	if t, ok := intTypes.Load(bits); ok {
		return t.(*Type)
	}
	t, _ := intTypes.LoadOrStore(bits, &Type{Kind: KindInt, Bits: bits})
	return t.(*Type)
}

// FloatT returns float.
func FloatT() *Type { return floatType }

// DoubleT returns double.
func DoubleT() *Type { return doubleType }

var (
	opaquePtrType = &Type{Kind: KindPtr}
	ptrTypes      sync.Map // *Type (elem) -> *Type
	arrayTypes    sync.Map // arrayKey -> *Type
)

type arrayKey struct {
	n    int64
	elem *Type
}

// Ptr returns a pointer to elem (elem may be nil for a fully opaque pointer).
// Interning keys on the pointee node: Equal treats all pointers alike, but
// typed-pointer printing reads Elem, so distinct pointees stay distinct.
func Ptr(elem *Type) *Type {
	if elem == nil {
		return opaquePtrType
	}
	if t, ok := ptrTypes.Load(elem); ok {
		return t.(*Type)
	}
	t, _ := ptrTypes.LoadOrStore(elem, &Type{Kind: KindPtr, Elem: elem})
	return t.(*Type)
}

// ArrayOf returns [n x elem]. Interning by (n, elem node) shares the handful
// of buffer shapes a kernel's loads and GEPs re-derive thousands of times.
func ArrayOf(n int64, elem *Type) *Type {
	key := arrayKey{n: n, elem: elem}
	if t, ok := arrayTypes.Load(key); ok {
		return t.(*Type)
	}
	t, _ := arrayTypes.LoadOrStore(key, &Type{Kind: KindArray, N: n, Elem: elem})
	return t.(*Type)
}

// StructOf returns an anonymous struct type.
func StructOf(fields ...*Type) *Type { return &Type{Kind: KindStruct, Fields: fields} }

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == KindInt }

// IsFP reports whether t is float or double.
func (t *Type) IsFP() bool { return t != nil && (t.Kind == KindFloat || t.Kind == KindDouble) }

// IsPtr reports whether t is a pointer.
func (t *Type) IsPtr() bool { return t != nil && t.Kind == KindPtr }

// IsArray reports whether t is an array.
func (t *Type) IsArray() bool { return t != nil && t.Kind == KindArray }

// IsStruct reports whether t is a struct.
func (t *Type) IsStruct() bool { return t != nil && t.Kind == KindStruct }

// IsVoid reports whether t is void.
func (t *Type) IsVoid() bool { return t == nil || t.Kind == KindVoid }

// Equal reports structural equality. Pointers compare equal regardless of
// pointee (matching opaque-pointer semantics).
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindVoid, KindFloat, KindDouble, KindPtr:
		return true
	case KindInt:
		return t.Bits == o.Bits
	case KindArray:
		return t.N == o.N && t.Elem.Equal(o.Elem)
	case KindStruct:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if !t.Fields[i].Equal(o.Fields[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// SizeBytes returns the byte size used by the interpreter and the BRAM
// model (no padding in structs: HLS aggregates are packed here).
func (t *Type) SizeBytes() int64 {
	switch t.Kind {
	case KindVoid:
		return 0
	case KindInt:
		if t.Bits <= 8 {
			return 1
		}
		return int64((t.Bits + 7) / 8)
	case KindFloat:
		return 4
	case KindDouble:
		return 8
	case KindPtr:
		return 8
	case KindArray:
		return t.N * t.Elem.SizeBytes()
	case KindStruct:
		var s int64
		for _, f := range t.Fields {
			s += f.SizeBytes()
		}
		return s
	}
	return 0
}

// str renders the type; opaque selects pointer spelling.
func (t *Type) str(opaque bool) string {
	if t == nil {
		return "void"
	}
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindInt:
		return fmt.Sprintf("i%d", t.Bits)
	case KindFloat:
		return "float"
	case KindDouble:
		return "double"
	case KindPtr:
		if opaque || t.Elem == nil {
			return "ptr"
		}
		return t.Elem.str(opaque) + "*"
	case KindArray:
		return fmt.Sprintf("[%d x %s]", t.N, t.Elem.str(opaque))
	case KindStruct:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.str(opaque)
		}
		return "{ " + strings.Join(parts, ", ") + " }"
	}
	return "<badtype>"
}

// String renders the type in modern (opaque-pointer) spelling.
func (t *Type) String() string { return t.str(true) }

// TypedString renders the type with typed pointers (HLS-era spelling).
func (t *Type) TypedString() string { return t.str(false) }
