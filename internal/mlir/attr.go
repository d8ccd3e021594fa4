package mlir

import (
	"slices"
	"strconv"
	"strings"
)

// Attr is an immutable op attribute.
type Attr interface {
	// String renders the attribute in MLIR-like syntax.
	String() string
	// EqualAttr reports structural equality with another attribute.
	EqualAttr(Attr) bool
}

// IntAttr is a 64-bit integer attribute, optionally carrying an element type.
type IntAttr struct {
	Value int64
	Ty    *Type // nil means index/i64 default
}

// I is shorthand for an integer attribute without an explicit type.
func I(v int64) IntAttr { return IntAttr{Value: v} }

// String implements Attr.
func (a IntAttr) String() string {
	if a.Ty != nil && !a.Ty.IsIndex() {
		return strconv.FormatInt(a.Value, 10) + " : " + a.Ty.String()
	}
	return strconv.FormatInt(a.Value, 10)
}

// EqualAttr implements Attr.
func (a IntAttr) EqualAttr(o Attr) bool {
	b, ok := o.(IntAttr)
	if !ok || a.Value != b.Value {
		return false
	}
	if a.Ty == nil || b.Ty == nil {
		return a.Ty == b.Ty
	}
	return a.Ty.Equal(b.Ty)
}

// FloatAttr is a float attribute with an element type.
type FloatAttr struct {
	Value float64
	Ty    *Type
}

// formatFloat spells a float literal so that it lexes as a float.
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// String implements Attr.
func (a FloatAttr) String() string {
	s := formatFloat(a.Value)
	if a.Ty != nil {
		return s + " : " + a.Ty.String()
	}
	return s
}

// EqualAttr implements Attr.
func (a FloatAttr) EqualAttr(o Attr) bool {
	b, ok := o.(FloatAttr)
	if !ok || a.Value != b.Value {
		return false
	}
	if a.Ty == nil || b.Ty == nil {
		return a.Ty == b.Ty
	}
	return a.Ty.Equal(b.Ty)
}

// StringAttr is a quoted string attribute.
type StringAttr string

// String implements Attr.
func (a StringAttr) String() string { return strconv.Quote(string(a)) }

// EqualAttr implements Attr.
func (a StringAttr) EqualAttr(o Attr) bool {
	b, ok := o.(StringAttr)
	return ok && a == b
}

// BoolAttr is true/false.
type BoolAttr bool

// String implements Attr.
func (a BoolAttr) String() string {
	if a {
		return "true"
	}
	return "false"
}

// EqualAttr implements Attr.
func (a BoolAttr) EqualAttr(o Attr) bool {
	b, ok := o.(BoolAttr)
	return ok && a == b
}

// UnitAttr marks presence with no payload.
type UnitAttr struct{}

// String implements Attr.
func (UnitAttr) String() string { return "unit" }

// EqualAttr implements Attr.
func (UnitAttr) EqualAttr(o Attr) bool {
	_, ok := o.(UnitAttr)
	return ok
}

// TypeAttr wraps a type as an attribute.
type TypeAttr struct{ Ty *Type }

// String implements Attr.
func (a TypeAttr) String() string { return a.Ty.String() }

// EqualAttr implements Attr.
func (a TypeAttr) EqualAttr(o Attr) bool {
	b, ok := o.(TypeAttr)
	return ok && a.Ty.Equal(b.Ty)
}

// ArrayAttr is an ordered list of attributes.
type ArrayAttr []Attr

// String implements Attr.
func (a ArrayAttr) String() string { return string(AppendAttr(nil, a)) }

// EqualAttr implements Attr.
func (a ArrayAttr) EqualAttr(o Attr) bool {
	b, ok := o.(ArrayAttr)
	if !ok || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].EqualAttr(b[i]) {
			return false
		}
	}
	return true
}

// AffineMapAttr wraps an affine map as an attribute.
type AffineMapAttr struct{ Map *AffineMap }

// String implements Attr.
func (a AffineMapAttr) String() string { return string(AppendAttr(nil, a)) }

// EqualAttr implements Attr.
func (a AffineMapAttr) EqualAttr(o Attr) bool {
	b, ok := o.(AffineMapAttr)
	return ok && a.Map.Equal(b.Map)
}

// SymbolRefAttr references a symbol such as a function name.
type SymbolRefAttr string

// String implements Attr.
func (a SymbolRefAttr) String() string { return "@" + string(a) }

// EqualAttr implements Attr.
func (a SymbolRefAttr) EqualAttr(o Attr) bool {
	b, ok := o.(SymbolRefAttr)
	return ok && a == b
}

// AppendAttr appends a.String() to dst, formatting the common attribute
// kinds in place.
func AppendAttr(dst []byte, a Attr) []byte {
	switch a := a.(type) {
	case IntAttr:
		dst = strconv.AppendInt(dst, a.Value, 10)
		if a.Ty != nil && !a.Ty.IsIndex() {
			dst = append(dst, " : "...)
			dst = append(dst, a.Ty.String()...)
		}
		return dst
	case StringAttr:
		return strconv.AppendQuote(dst, string(a))
	case ArrayAttr:
		dst = append(dst, '[')
		for i, e := range a {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendAttr(dst, e)
		}
		return append(dst, ']')
	case AffineMapAttr:
		dst = a.Map.appendTo(append(dst, "affine_map<"...))
		return append(dst, '>')
	}
	return append(dst, a.String()...)
}

// appendAttrDict appends the attributes not named in skip as
// " {k = v, ...}", in the list's name order; it appends nothing when none
// remains.
func appendAttrDict(b []byte, attrs []NamedAttr, skip []string) []byte {
	n := 0
	for _, a := range attrs {
		if slices.Contains(skip, a.Name) {
			continue
		}
		if n == 0 {
			b = append(b, " {"...)
		} else {
			b = append(b, ", "...)
		}
		n++
		b = append(b, a.Name...)
		if _, isUnit := a.Value.(UnitAttr); !isUnit {
			b = AppendAttr(append(b, " = "...), a.Value)
		}
	}
	if n > 0 {
		b = append(b, '}')
	}
	return b
}
