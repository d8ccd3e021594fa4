package mlir

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// TestDigestSeesEveryIdentityField: changing any one field Equal compares
// — an opcode, a slot, an immediate, a float constant's bit pattern (±0.0
// included), an index list, a constant, an argument or allocation type —
// changes the digest; the diagnostics do not.
func TestDigestSeesEveryIdentityField(t *testing.T) {
	base := &Program{
		args:   []*Type{MemRef([]int64{8}, F32()), MemRef([]int64{2, 4}, I32())},
		nslots: 9,
		code: []minst{
			{op: mCharge, imm: 4},
			{op: mConstF, dst: 2, imm: int64(math.Float64bits(0))},
			{op: mLoad, sub: 1, dst: 3, b: 0, c: 0, imm: 1},
			{op: mAddF32, dst: 4, a: 3, b: 2},
			{op: mStore, sub: 1, a: 4, b: 0, c: 0, imm: 1},
			{op: mAlloc, dst: 5, c: 0},
			{op: mRet},
		},
		idx:    []int32{6, 7},
		consts: []mconst{{slot: 6, v: 0}, {slot: 7, v: 3}},
		types:  []*Type{MemRef([]int64{4}, F64())},
		name:   "k",
	}
	clone := func() *Program {
		q := *base
		q.args, q.code, q.idx = slices.Clone(base.args), slices.Clone(base.code), slices.Clone(base.idx)
		q.consts, q.types = slices.Clone(base.consts), slices.Clone(base.types)
		return &q
	}
	for _, c := range []struct {
		name string
		edit func(p *Program)
	}{
		{"opcode", func(p *Program) { p.code[3].op = mSubF32 }},
		{"sub", func(p *Program) { p.code[2].sub = 3 }},
		{"dst slot", func(p *Program) { p.code[3].dst = 8 }},
		{"operand slot a", func(p *Program) { p.code[3].a = 2 }},
		{"operand slot b", func(p *Program) { p.code[3].b = 3 }},
		{"operand c", func(p *Program) { p.code[5].c = 1 }},
		{"imm", func(p *Program) { p.code[0].imm = 5 }},
		{"negative zero", func(p *Program) { p.code[1].imm = int64(math.Float64bits(math.Copysign(0, -1))) }},
		{"code length", func(p *Program) { p.code = append(p.code, minst{op: mRet}) }},
		{"index list", func(p *Program) { p.idx[1] = 6 }},
		{"constant value", func(p *Program) { p.consts[1].v = 4 }},
		{"constant slot", func(p *Program) { p.consts[0].slot = 8 }},
		{"slot count", func(p *Program) { p.nslots = 10 }},
		{"argument element type", func(p *Program) { p.args[0] = MemRef([]int64{8}, F64()) }},
		{"argument shape", func(p *Program) { p.args[1] = MemRef([]int64{4, 2}, I32()) }},
		{"argument rank", func(p *Program) { p.args[1] = MemRef([]int64{8}, I32()) }},
		{"argument count", func(p *Program) { p.args = p.args[:1] }},
		{"allocation type", func(p *Program) { p.types[0] = MemRef([]int64{4}, I64()) }},
	} {
		p := clone()
		c.edit(p)
		if p.Equal(base) {
			t.Errorf("%s: the edited program is still Equal to the base", c.name)
		}
		if p.Digest() == base.Digest() {
			t.Errorf("%s: the edit left the digest unchanged", c.name)
		}
	}
	p := clone()
	p.name, p.errs = "renamed", []error{errors.New("unsupported op")}
	p.args[0] = &Type{Kind: KindMemRef, Elem: F32(), Shape: []int64{8}} // equal, not interned
	if p.Digest() != base.Digest() || !p.Equal(base) {
		t.Error("diagnostics or an equal type's identity changed the program")
	}
}
