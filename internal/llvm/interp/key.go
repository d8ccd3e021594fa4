package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/llvm"
)

// layout is the numbering of the function being compiled or keyed: its
// blocks carry their indices and its instructions their numbers, both
// written by Renumber, and instrs holds the instructions by number, the
// snapshot a number is checked against before it is trusted. A detached or
// foreign block or instruction carries a stale or zero number, which the
// identity check rejects.
type layout struct {
	f      *llvm.Function
	instrs []*llvm.Instr
}

// number renumbers f and snapshots its instructions; it returns their
// count.
func (l *layout) number(f *llvm.Function) int {
	l.f = f
	n := f.Renumber()
	l.instrs = slices.Grow(l.instrs[:0], n)
	for _, b := range f.Blocks {
		l.instrs = append(l.instrs, b.Instrs...)
	}
	return n
}

// instr returns in's number, or -1 when f does not hold it.
func (l *layout) instr(in *llvm.Instr) int32 {
	if i := in.ID; i >= 0 && int(i) < len(l.instrs) && l.instrs[i] == in {
		return i
	}
	return -1
}

// block returns b's index in f, or -1 when f does not hold it.
func (l *layout) block(b *llvm.Block) int32 {
	if b == nil {
		return -1
	}
	if i := b.ID; i >= 0 && int(i) < len(l.f.Blocks) && l.f.Blocks[i] == b {
		return i
	}
	return -1
}

// param returns the index of p among f's parameters, or -1 when p is not
// one of them.
func (l *layout) param(p *llvm.Param) int32 {
	for i, q := range l.f.Params {
		if q == p {
			return int32(i)
		}
	}
	return -1
}

// release empties the snapshot, so a pooled layout pins no module.
func (l *layout) release() {
	clear(l.instrs)
	l.instrs, l.f = l.instrs[:0], nil
}

// callTarget returns the defined function a call to in.Callee enters, or
// nil when the call compiles to an error: an unknown or declared callee,
// or fewer arguments than parameters.
func callTarget(mod *llvm.Module, in *llvm.Instr) *llvm.Function {
	callee := mod.FindFunc(in.Callee)
	if callee == nil || callee.IsDecl || len(in.Args) < len(callee.Params) {
		return nil
	}
	return callee
}

// keyer computes program keys. Its tables are scratch, reused through
// keyers.
type keyer struct {
	lay     layout
	mc      modCompiler  // the functions in the order the compiler queues them
	foreign []llvm.Value // operands outside the function, in first-sight order
	buf     []byte
}

var keyers sync.Pool

// Operand tags.
const (
	tagInstr byte = iota
	tagParam
	tagConstInt
	tagConstFloat
	tagUndef
	tagForeign
	tagNil
)

// Block reference and call tags.
const (
	blockNil     = -1
	blockForeign = -2

	callUncompiled = -1 // after the block's terminator
	callError      = -2 // unknown or declared callee, or too few arguments
)

// ProgramKey returns a key for the program Compile(mod, name) builds: the
// SHA-256 of a length-prefixed encoding of everything the compiler reads
// (counts, numbers and integers as varints, floats by bit pattern),
// over the function and every defined function it calls, in the order the
// compiler compiles them. Per function that is the parameter types and,
// per instruction, the opcode, the result type, the operands, the
// predicate, the branch and phi blocks, the callee and the memory type;
// types are encoded structurally and constants by bit pattern, so +0.0
// and -0.0 differ. An operand that is an instruction or parameter of the
// function is encoded by its number or index, anything else by a tag of
// its own and its first-sight position among such operands. Names,
// attributes, loop metadata, alignment and extractvalue indices never reach
// a program and are left out, so directive passes leave the key as it is.
//
// Equal keys mean Compile builds Equal programs. ProgramKey fails exactly
// when Compile does. Like Renumber, which it calls, it needs the same
// exclusive access to the module as a pass, unless every function's
// numbering is current.
func ProgramKey(mod *llvm.Module, name string) ([sha256.Size]byte, error) {
	f := mod.FindFunc(name)
	if f == nil {
		return [sha256.Size]byte{}, fmt.Errorf("interp: function @%s not found", name)
	}
	k, _ := keyers.Get().(*keyer)
	if k == nil {
		k = &keyer{}
	}
	k.mc.mod = mod
	k.mc.queue = append(k.mc.queue[:0], f)
	b := k.buf[:0]
	for i := 0; i < len(k.mc.queue); i++ {
		b = k.function(b, k.mc.queue[i])
	}
	sum := sha256.Sum256(b)
	k.buf = b
	k.lay.release()
	clear(k.mc.queue)
	clear(k.foreign)
	k.mc.queue, k.foreign, k.mc.mod = k.mc.queue[:0], k.foreign[:0], nil
	keyers.Put(k)
	return sum, nil
}

// function appends the encoding of fn.
func (k *keyer) function(b []byte, fn *llvm.Function) []byte {
	k.lay.number(fn)
	clear(k.foreign)
	k.foreign = k.foreign[:0]
	b = binary.AppendUvarint(b, uint64(len(fn.Params)))
	for _, p := range fn.Params {
		b = appendType(b, p.Ty)
	}
	b = binary.AppendUvarint(b, uint64(len(fn.Blocks)))
	for _, blk := range fn.Blocks {
		b = binary.AppendUvarint(b, uint64(len(blk.Instrs)))
		terminated := false
		for _, in := range blk.Instrs {
			b = k.instr(b, in, !terminated)
			terminated = terminated || in.IsTerminator()
		}
	}
	return b
}

// instr appends the encoding of in; compiled tells whether the compiler
// compiles it (it precedes its block's first terminator or is it).
func (k *keyer) instr(b []byte, in *llvm.Instr, compiled bool) []byte {
	b = appendString(b, string(in.Op))
	b = appendType(b, in.Ty)
	b = binary.AppendUvarint(b, uint64(len(in.Args)))
	for _, v := range in.Args {
		b = k.operand(b, v)
	}
	b = appendString(b, in.Pred)
	b = binary.AppendUvarint(b, uint64(len(in.Blocks)))
	for _, blk := range in.Blocks {
		i := k.lay.block(blk)
		switch {
		case i >= 0:
		case blk == nil:
			i = blockNil
		default:
			i = blockForeign
		}
		b = binary.AppendVarint(b, int64(i))
	}
	b = appendType(b, in.SrcElem)
	switch in.Op {
	case llvm.OpICmp, llvm.OpZExt, llvm.OpStore:
		// The compiler reads the first operand's type: a pointer compare,
		// the zero-extended width, the stored width.
		if len(in.Args) > 0 && in.Args[0] != nil {
			b = appendType(b, in.Args[0].Type())
		}
	case llvm.OpCall:
		b = appendString(b, in.Callee)
		target := int32(callUncompiled)
		if _, _, _, ok := intrinsicOp(in.Callee); compiled && !ok {
			target = callError
			if callee := callTarget(k.mc.mod, in); callee != nil {
				target = k.mc.funcIndex(callee)
			}
		}
		b = binary.AppendVarint(b, int64(target))
	}
	return b
}

// operand appends the encoding of an operand.
func (k *keyer) operand(b []byte, v llvm.Value) []byte {
	switch x := v.(type) {
	case *llvm.ConstInt:
		return binary.AppendVarint(append(b, tagConstInt), x.Val)
	case *llvm.ConstFloat:
		return binary.LittleEndian.AppendUint64(append(b, tagConstFloat), math.Float64bits(x.Val))
	case *llvm.Undef:
		return append(b, tagUndef)
	case *llvm.Instr:
		if i := k.lay.instr(x); i >= 0 {
			return binary.AppendUvarint(append(b, tagInstr), uint64(i))
		}
	case *llvm.Param:
		if i := k.lay.param(x); i >= 0 {
			return binary.AppendUvarint(append(b, tagParam), uint64(i))
		}
	case nil:
		return append(b, tagNil)
	}
	i := slices.Index(k.foreign, v)
	if i < 0 {
		i = len(k.foreign)
		k.foreign = append(k.foreign, v)
	}
	return binary.AppendUvarint(append(b, tagForeign), uint64(i))
}

// appendString appends s, length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendType encodes t by the fields Type.Equal compares: the kind, an
// integer's width, an array's length and element type, and a struct's
// fields.
func appendType(b []byte, t *llvm.Type) []byte {
	if t == nil {
		return append(b, 0xff)
	}
	b = append(b, byte(t.Kind))
	switch t.Kind {
	case llvm.KindInt:
		b = binary.AppendVarint(b, int64(t.Bits))
	case llvm.KindArray:
		b = binary.AppendVarint(b, t.N)
		b = appendType(b, t.Elem)
	case llvm.KindStruct:
		b = binary.AppendUvarint(b, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			b = appendType(b, f)
		}
	}
	return b
}
