package mlir

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// numbering numbers values in first-sight order without a table: it stamps
// each value it numbers into the value's scope field. The stamps are
// reserved for the walk from the counter the verifier's walks draw on, in
// ranges of stampRange numbers, so a stamp another walk or the verifier
// left behind falls in none of this walk's ranges and reads as unseen.
// Stamping writes the IR, so a numbering walk needs the same exclusive
// access to the module as a pass.
type numbering struct {
	bases []uint64 // first stamp of each range the walk reserved
	n     int      // values numbered so far
}

// stampRange is how many stamps a numbering walk reserves at a time.
const stampRange = 1 << 16

func (s *numbering) reset() { s.bases, s.n = s.bases[:0], 0 }

// number returns v's number and whether this is its first sight.
func (s *numbering) number(v *Value) (int, bool) {
	st := v.scope
	for i, b := range s.bases {
		if d := st - b; d < stampRange {
			return i*stampRange + int(d), false
		}
	}
	if s.n == len(s.bases)*stampRange {
		s.bases = append(s.bases, walks.Add(stampRange)-stampRange+1)
	}
	n := s.n
	v.scope = s.bases[n/stampRange] + uint64(n%stampRange)
	s.n++
	return n, true
}

// numberBlocks writes each block's index in blocks into it, storing only
// the numbers that differ.
func numberBlocks(blocks []*Block) {
	for i, b := range blocks {
		if b.num != int32(i) {
			b.num = int32(i)
		}
	}
}

// blockIndex returns b's index in blocks, numbered by numberBlocks, or -1
// when blocks does not hold it (a detached block or one of another region
// carries a stale or zero number).
func blockIndex(blocks []*Block, b *Block) int {
	if b == nil {
		return -1
	}
	if i := int(b.num); i >= 0 && i < len(blocks) && blocks[i] == b {
		return i
	}
	return -1
}

// funcToCompile returns the named function and its entry block, failing as
// Compile does when either does not exist.
func (m *Module) funcToCompile(funcName string) (*Op, *Block, error) {
	f := m.FindFunc(funcName)
	if f == nil {
		return nil, nil, fmt.Errorf("interp: function %q not found", funcName)
	}
	body := FuncBody(f)
	if body == nil {
		return nil, nil, fmt.Errorf("interp: function %q has no body", funcName)
	}
	return f, body, nil
}

// keyer computes program keys; keyers reuses its buffer and stamp ranges'
// storage.
type keyer struct {
	nums   numbering
	blocks []*Block // the function's top-level blocks
	buf    []byte
}

var keyers sync.Pool

// The attributes the compiler reads, as they are encoded.
const (
	keyAttrValue byte = 1 + iota
	keyAttrPredicate
	keyAttrMap
	keyAttrLowerMap
	keyAttrUpperMap
	keyAttrStep
	keyAttrLBCount
	keyAttrTrueCount
	keyAttrFalseCount
)

// keyAttr returns the encoding of an attribute name the compiler reads, or
// 0 for the rest.
func keyAttr(name string) byte {
	switch name {
	case AttrValue:
		return keyAttrValue
	case AttrPredicate:
		return keyAttrPredicate
	case AttrMap:
		return keyAttrMap
	case AttrLowerMap:
		return keyAttrLowerMap
	case AttrUpperMap:
		return keyAttrUpperMap
	case AttrStep:
		return keyAttrStep
	case AttrLBCount:
		return keyAttrLBCount
	case AttrTrueCount:
		return keyAttrTrueCount
	case AttrFalseCount:
		return keyAttrFalseCount
	}
	return 0
}

// Value and block reference tags.
const (
	keyNil     = math.MaxUint32     // a nil value or block
	keyForeign = math.MaxUint32 - 1 // a successor outside the function's region
)

// ProgramKey returns a key for the program Compile(funcName) builds: the
// SHA-256 of a length-prefixed encoding of everything the compiler reads
// (counts, numbers and integers as varints, floats by bit pattern).
// The walk covers the function's blocks in order and every op nested in
// them in pre-order: the block arguments; per op, the name, the operands,
// the results and their types, the successors and the regions; and the
// attributes the compiler reads — value, predicate, map, lowerBound,
// upperBound, step, lbOperands, trueOperands and falseOperands, with
// affine maps encoded structurally and float constants by bit pattern, so
// +0.0 and -0.0 differ. Values are encoded by first-sight number, blocks
// by their index in the function's region. Value names and every other
// attribute — the hls.* directives among them — are left out, so directive
// passes leave the key as it is. Types are encoded by what Type.Equal
// compares.
//
// Equal keys mean Compile builds Equal programs. ProgramKey fails exactly
// when Compile does. It numbers the values it walks by stamping them, so
// like Verify it needs the same exclusive access to the module as a pass.
func (m *Module) ProgramKey(funcName string) ([sha256.Size]byte, error) {
	f, _, err := m.funcToCompile(funcName)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	k, _ := keyers.Get().(*keyer)
	if k == nil {
		k = &keyer{}
	}
	k.nums.reset()
	k.blocks = f.Regions[0].Blocks
	numberBlocks(k.blocks)
	b := k.region(k.buf[:0], f.Regions[0])
	sum := sha256.Sum256(b)
	k.buf, k.blocks = b, nil
	keyers.Put(k)
	return sum, nil
}

// region appends the encoding of r's blocks.
func (k *keyer) region(b []byte, r *Region) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Blocks)))
	for _, blk := range r.Blocks {
		b = binary.AppendUvarint(b, uint64(len(blk.Args)))
		for _, a := range blk.Args {
			b = appendType(k.value(b, a), a.Type())
		}
		b = binary.AppendUvarint(b, uint64(len(blk.Ops)))
		for _, op := range blk.Ops {
			b = k.op(b, op)
		}
	}
	return b
}

// op appends the encoding of op and the ops nested in it.
func (k *keyer) op(b []byte, op *Op) []byte {
	b = appendString(b, op.Name)
	b = binary.AppendUvarint(b, uint64(len(op.Operands)))
	for _, v := range op.Operands {
		b = k.value(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(op.Results)))
	for _, v := range op.Results {
		b = k.value(b, v)
		if v != nil {
			b = appendType(b, v.Type())
		}
	}
	for _, a := range op.Attrs {
		if id := keyAttr(a.Name); id != 0 {
			b = appendAttr(append(b, id), a.Value)
		}
	}
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(len(op.Succs)))
	for _, s := range op.Succs {
		i := blockIndex(k.blocks, s)
		tag := uint32(i)
		switch {
		case s == nil:
			tag = keyNil
		case i < 0:
			tag = keyForeign
		}
		b = binary.AppendUvarint(b, uint64(tag))
	}
	b = binary.AppendUvarint(b, uint64(len(op.Regions)))
	for _, r := range op.Regions {
		b = k.region(b, r)
	}
	return b
}

// value appends v's first-sight number.
func (k *keyer) value(b []byte, v *Value) []byte {
	if v == nil {
		return binary.AppendUvarint(b, keyNil)
	}
	n, _ := k.nums.number(v)
	return binary.AppendUvarint(b, uint64(n))
}

// Attribute value tags.
const (
	keyInt byte = iota
	keyFloat
	keyString
	keyMap
	keyOther
)

// appendAttr encodes an attribute by what the compiler reads of it: an
// integer's or a float's value, a string, an affine map. An attribute of
// any other kind reads as absent.
func appendAttr(b []byte, a Attr) []byte {
	switch a := a.(type) {
	case IntAttr:
		return binary.AppendVarint(append(b, keyInt), a.Value)
	case FloatAttr:
		return binary.LittleEndian.AppendUint64(append(b, keyFloat), math.Float64bits(a.Value))
	case StringAttr:
		return appendString(append(b, keyString), string(a))
	case AffineMapAttr:
		return appendMap(append(b, keyMap), a.Map)
	}
	return append(b, keyOther)
}

// appendMap encodes an affine map structurally.
func appendMap(b []byte, m *AffineMap) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = binary.AppendVarint(append(b, 1), int64(m.NumDims))
	b = binary.AppendVarint(b, int64(m.NumSyms))
	b = binary.AppendUvarint(b, uint64(len(m.Exprs)))
	for _, e := range m.Exprs {
		b = appendExpr(b, e)
	}
	return b
}

// appendExpr encodes an affine expression tree in pre-order.
func appendExpr(b []byte, e *AffineExpr) []byte {
	if e == nil {
		return append(b, 0xff)
	}
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case AffineDim, AffineSym:
		return binary.AppendVarint(b, int64(e.Pos))
	case AffineConst:
		return binary.AppendVarint(b, e.Val)
	}
	return appendExpr(appendExpr(b, e.LHS), e.RHS)
}

// appendString appends s, length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendType encodes t by the fields Type.Equal compares: the kind, the
// width of an integer or float, and a memref's rank, dimensions and element
// type.
func appendType(b []byte, t *Type) []byte {
	if t == nil {
		return append(b, 0xff)
	}
	b = append(b, byte(t.Kind))
	switch t.Kind {
	case KindInt, KindFloat:
		b = binary.AppendVarint(b, int64(t.Width))
	case KindMemRef:
		b = binary.AppendUvarint(b, uint64(len(t.Shape)))
		for _, d := range t.Shape {
			b = binary.AppendVarint(b, d)
		}
		b = appendType(b, t.Elem)
	}
	return b
}
