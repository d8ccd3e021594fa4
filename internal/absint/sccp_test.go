package absint

import (
	"testing"

	"repro/internal/llvm"
)

// TestSCCPConstBranch: a folded constant condition makes the dead arm
// unreachable, and phi values in the merge collapse to the live arm.
func TestSCCPConstBranch(t *testing.T) {
	f := llvm.NewFunction("cb", llvm.Void())
	entry := f.AddBlock("entry")
	then := f.AddBlock("then")
	els := f.AddBlock("else")
	join := f.AddBlock("join")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	x := b.Add(llvm.CI(llvm.I64(), 2), llvm.CI(llvm.I64(), 3))
	cmp := b.ICmp("sgt", x, llvm.CI(llvm.I64(), 10)) // 5 > 10: false
	b.CondBr(cmp, then, els)
	b.SetBlock(then)
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	ph := b.Phi(llvm.I64())
	ph.AddIncoming(llvm.CI(llvm.I64(), 111), then)
	ph.AddIncoming(llvm.CI(llvm.I64(), 222), els)
	b.Ret(nil)

	r := SCCP(loopsOf(f))
	if !r.Unreachable(then) {
		t.Error("then-arm of a constant-false branch should be unreachable")
	}
	if r.Unreachable(els) || r.Unreachable(join) {
		t.Error("else and join are reachable")
	}
	if v, ok := r.ConstOf(join, ph); !ok || v != 222 {
		t.Errorf("phi folds to the live arm: got %d ok=%v, want 222", v, ok)
	}
	if v, ok := r.BranchConst(entry); !ok || v != 0 {
		t.Errorf("branch condition: got %d ok=%v, want 0", v, ok)
	}
}

// TestSCCPLoopNotUnreachable: loop bodies and exits must never be reported
// unreachable — the back-edge join overdefines the induction variable.
func TestSCCPLoopNotUnreachable(t *testing.T) {
	f, _, body := buildCountedLoop(t, "slt", 0, 1, 64)
	r := SCCP(loopsOf(f))
	for _, b := range f.Blocks {
		if r.Unreachable(b) {
			t.Errorf("block %%%s falsely unreachable", b.Name)
		}
	}
	iv := f.FindBlock("header").Instrs[0]
	if _, ok := r.ConstOf(body, iv); ok {
		t.Error("loop induction variable is not constant")
	}
}

// TestSCCPPropagation: constants flow through arithmetic and select chains.
func TestSCCPPropagation(t *testing.T) {
	f := llvm.NewFunction("prop", llvm.Void(), &llvm.Param{Name: "n", Ty: llvm.I64()})
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	a := b.Mul(llvm.CI(llvm.I64(), 6), llvm.CI(llvm.I64(), 7)) // 42
	s := b.SDiv(a, llvm.CI(llvm.I64(), 2))                     // 21
	sel := b.Select(llvm.CI(llvm.I1(), 1), s, f.Params[0])     // 21
	mix := b.Add(sel, f.Params[0])                             // overdefined
	b.Ret(nil)

	r := SCCP(loopsOf(f))
	if v, ok := r.ConstOf(entry, sel); !ok || v != 21 {
		t.Errorf("select: got %d ok=%v, want 21", v, ok)
	}
	if _, ok := r.ConstOf(entry, mix); ok {
		t.Error("mixing in a parameter must go overdefined")
	}
}
