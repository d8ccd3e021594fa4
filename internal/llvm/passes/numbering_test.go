package passes

import (
	"testing"

	"repro/internal/llvm"
)

// The passes index their tables by instruction number. These tests give an
// operand a detached instruction that carries the number of an instruction
// the table holds: the pass must tell them apart.

func TestDCEDetachedOperand(t *testing.T) {
	i32 := llvm.I32()
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(i32)})
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	dead := b.Add(llvm.CI(i32, 1), llvm.CI(i32, 2))
	detached := &llvm.Instr{Op: llvm.OpAdd, Name: "d", Ty: i32, Args: []llvm.Value{llvm.CI(i32, 1), llvm.CI(i32, 1)}}
	use := b.Add(llvm.CI(i32, 3), detached)
	b.Store(use, f.Params[0])
	b.Ret(nil)
	f.Renumber()
	detached.ID = dead.ID

	DCE(f)
	if dead.Parent != nil || len(entry.Instrs) != 3 || entry.Instrs[0] != use {
		t.Errorf("DCE kept the unused add: %d instrs left", len(entry.Instrs))
	}
}

func TestCSEDetachedOperand(t *testing.T) {
	i32 := llvm.I32()
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(i32)},
		&llvm.Param{Name: "x", Ty: i32})
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	a1 := b.Add(f.Params[1], llvm.CI(i32, 1))
	a2 := b.Add(f.Params[1], llvm.CI(i32, 1))
	detached := &llvm.Instr{Op: llvm.OpAdd, Name: "d", Ty: i32, Args: []llvm.Value{llvm.CI(i32, 1), llvm.CI(i32, 1)}}
	s := b.Add(a2, detached)
	b.Store(s, f.Params[0])
	b.Ret(nil)
	f.Renumber()
	detached.ID = a2.ID

	CSE(f)
	if a2.Parent != nil || s.Args[0] != a1 {
		t.Fatalf("CSE did not replace the second add")
	}
	if s.Args[1] != detached {
		t.Errorf("CSE rewrote the detached operand to %s", s.Args[1].Ident())
	}
}

func TestMem2RegDetachedOperands(t *testing.T) {
	i32 := llvm.I32()
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(i32)})
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	slot := b.Alloca(i32)
	b.Store(llvm.CI(i32, 5), slot)
	detAlloca := &llvm.Instr{Op: llvm.OpAlloca, Name: "da", Ty: llvm.Ptr(i32), SrcElem: i32}
	stray := b.Store(llvm.CI(i32, 7), detAlloca)
	v := b.Load(i32, slot)
	detLoad := &llvm.Instr{Op: llvm.OpLoad, Name: "dl", Ty: i32, SrcElem: i32, Args: []llvm.Value{slot}}
	s := b.Add(v, detLoad)
	b.Store(s, f.Params[0])
	b.Ret(nil)
	f.Renumber()
	detAlloca.ID = slot.ID
	detLoad.ID = v.ID

	Mem2Reg(f)
	if slot.Parent != nil || v.Parent != nil {
		t.Fatalf("Mem2Reg did not promote the alloca")
	}
	if stray.Parent != entry {
		t.Errorf("Mem2Reg removed the store to a detached alloca")
	}
	if c, ok := s.Args[0].(*llvm.ConstInt); !ok || c.Val != 5 {
		t.Errorf("the promoted load became %s, want 5", s.Args[0].Ident())
	}
	if s.Args[1] != detLoad {
		t.Errorf("Mem2Reg rewrote the detached load to %s", s.Args[1].Ident())
	}
}
