package passes

import (
	"context"
	"testing"

	"repro/internal/llvm"
	"repro/internal/llvm/interp"
)

// buildCountdown builds, in alloca form (pre-mem2reg):
//
//	void f(i32* out) { int s = 0; for (i=0; i<10; i++) s += i; *out = s; }
func buildCountdown(t *testing.T) (*llvm.Module, *llvm.Function) {
	t.Helper()
	m := llvm.NewModule("t")
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "out", Ty: llvm.Ptr(llvm.I32())})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	header := f.AddBlock("header")
	body := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	sSlot := b.Alloca(llvm.I32())
	iSlot := b.Alloca(llvm.I32())
	b.Store(llvm.CI(llvm.I32(), 0), sSlot)
	b.Store(llvm.CI(llvm.I32(), 0), iSlot)
	b.Br(header)

	b.SetBlock(header)
	iv := b.Load(llvm.I32(), iSlot)
	cond := b.ICmp("slt", iv, llvm.CI(llvm.I32(), 10))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	i2 := b.Load(llvm.I32(), iSlot)
	s2 := b.Load(llvm.I32(), sSlot)
	sum := b.Add(s2, i2)
	b.Store(sum, sSlot)
	inext := b.Add(i2, llvm.CI(llvm.I32(), 1))
	b.Store(inext, iSlot)
	b.Br(header)

	b.SetBlock(exit)
	final := b.Load(llvm.I32(), sSlot)
	b.Store(final, f.Params[0])
	b.Ret(nil)

	if err := m.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return m, f
}

func runCountdown(t *testing.T, m *llvm.Module) int32 {
	t.Helper()
	out := interp.NewMem(4)
	mc := interp.NewMachine(m)
	if _, _, err := mc.Run(context.Background(), "f", interp.PtrArg(out, 0)); err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	return out.Int32Slice()[0]
}

func TestMem2RegPromotesAndPreserves(t *testing.T) {
	m, f := buildCountdown(t)
	before := runCountdown(t, m)
	if before != 45 {
		t.Fatalf("fixture computes %d, want 45", before)
	}
	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("mem2reg broke the module: %v", err)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpAlloca {
				t.Error("scalar alloca survived mem2reg")
			}
		}
	}
	// Phis must appear in the loop header.
	phis := 0
	for _, in := range f.FindBlock("header").Instrs {
		if in.Op == llvm.OpPhi {
			phis++
		}
	}
	if phis != 2 {
		t.Errorf("want 2 header phis (i, s), got %d", phis)
	}
	if after := runCountdown(t, m); after != 45 {
		t.Errorf("mem2reg changed semantics: %d", after)
	}
}

func TestMem2RegSkipsEscapingAlloca(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("g", llvm.Void())
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	slot := b.Alloca(llvm.I32())
	b.Store(llvm.CI(llvm.I32(), 1), slot)
	// Address escapes into a call.
	b.Call("consume", llvm.Void(), slot)
	b.Ret(nil)
	Mem2Reg(f)
	found := false
	for _, in := range entry.Instrs {
		if in.Op == llvm.OpAlloca {
			found = true
		}
	}
	if !found {
		t.Error("escaping alloca must not be promoted")
	}
}

func TestMem2RegArrayAllocaKept(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("h", llvm.Void())
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	arr := b.Alloca(llvm.ArrayOf(8, llvm.FloatT()))
	g := b.GEP(llvm.ArrayOf(8, llvm.FloatT()), arr, llvm.CI(llvm.I64(), 0), llvm.CI(llvm.I64(), 0))
	b.Store(llvm.CF(llvm.FloatT(), 1), g)
	b.Ret(nil)
	Mem2Reg(f)
	if entry.Instrs[0].Op != llvm.OpAlloca {
		t.Error("array alloca must be preserved")
	}
}

func TestDCE(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("d", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I32())})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	dead1 := b.Add(llvm.CI(llvm.I32(), 1), llvm.CI(llvm.I32(), 2))
	dead2 := b.Mul(dead1, dead1) // chain: removing dead2 makes dead1 dead
	_ = dead2
	live := b.Add(llvm.CI(llvm.I32(), 3), llvm.CI(llvm.I32(), 4))
	b.Store(live, f.Params[0])
	b.Ret(nil)
	DCE(f)
	if n := len(entry.Instrs); n != 3 {
		t.Errorf("want 3 instrs after DCE (add/store/ret), got %d", n)
	}
}

func TestConstFold(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("c", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I32())})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	x := b.Add(llvm.CI(llvm.I32(), 2), llvm.CI(llvm.I32(), 3)) // 5
	y := b.Mul(x, llvm.CI(llvm.I32(), 4))                      // 20
	z := b.Add(y, llvm.CI(llvm.I32(), 0))                      // identity
	b.Store(z, f.Params[0])
	b.Ret(nil)
	ConstFold(f)
	st := entry.Instrs[0]
	if st.Op != llvm.OpStore {
		t.Fatalf("expected folded store first, got %s", st.Op)
	}
	c, ok := st.Args[0].(*llvm.ConstInt)
	if !ok || c.Val != 20 {
		t.Errorf("folded value = %v", st.Args[0])
	}
}

func TestSimplifyCFGConstantBranchAndMerge(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("s", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I32())})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	thenB := f.AddBlock("then")
	elseB := f.AddBlock("else")
	join := f.AddBlock("join")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.CondBr(llvm.CI(llvm.I1(), 1), thenB, elseB)
	b.SetBlock(thenB)
	b.Store(llvm.CI(llvm.I32(), 7), f.Params[0])
	b.Br(join)
	b.SetBlock(elseB)
	b.Store(llvm.CI(llvm.I32(), 9), f.Params[0])
	b.Br(join)
	b.SetBlock(join)
	b.Ret(nil)

	SimplifyCFG(f)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// else is unreachable and then/join merge into entry: 1 block remains.
	if len(f.Blocks) != 1 {
		t.Errorf("want 1 block after simplification, got %d", len(f.Blocks))
	}
	out := interp.NewMem(4)
	mc := interp.NewMachine(m)
	if _, _, err := mc.Run(context.Background(), "s", interp.PtrArg(out, 0)); err != nil {
		t.Fatal(err)
	}
	if out.Int32Slice()[0] != 7 {
		t.Errorf("constant-folded branch took the wrong arm: %d", out.Int32Slice()[0])
	}
}

func TestSimplifyCFGKeepsLoopMetadata(t *testing.T) {
	m, f := buildCountdown(t)
	// Attach loop metadata to the latch.
	latch := f.FindBlock("body").Terminator()
	latch.Loop = &llvm.LoopMD{Pipeline: true, II: 3}
	Cleanup(f)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Loop != nil && in.Loop.II == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Error("loop metadata lost in cleanup")
	}
	if got := runCountdown(t, m); got != 45 {
		t.Errorf("cleanup changed semantics: %d", got)
	}
}

func TestCSEDedupes(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("e", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I32())},
		&llvm.Param{Name: "x", Ty: llvm.I32()})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	a1 := b.Add(f.Params[1], llvm.CI(llvm.I32(), 1))
	a2 := b.Add(f.Params[1], llvm.CI(llvm.I32(), 1)) // duplicate
	s := b.Add(a1, a2)
	b.Store(s, f.Params[0])
	b.Ret(nil)
	CSE(f)
	DCE(f)
	adds := 0
	for _, in := range entry.Instrs {
		if in.Op == llvm.OpAdd {
			adds++
		}
	}
	if adds != 2 {
		t.Errorf("want 2 adds after CSE (x+1 and the sum), got %d", adds)
	}
}

// An eliminated instruction in a loop latch feeds a phi of the header,
// which comes earlier in reverse postorder than the latch: the operand
// rewrite must still reach that phi.
func TestCSERewritesPhiInEarlierBlock(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("carry", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I32())},
		&llvm.Param{Name: "x", Ty: llvm.I32()})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	header := f.AddBlock("header")
	latch := f.AddBlock("latch")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	twice := b.Add(f.Params[1], f.Params[1])
	b.Br(header)
	b.SetBlock(header)
	s := b.Phi(llvm.I32())
	i := b.Phi(llvm.I32())
	b.CondBr(b.ICmp("slt", i, llvm.CI(llvm.I32(), 4)), latch, exit)
	b.SetBlock(latch)
	dup := b.Add(f.Params[1], f.Params[1]) // duplicate of twice
	inext := b.Add(i, llvm.CI(llvm.I32(), 1))
	b.Br(header)
	s.AddIncoming(llvm.CI(llvm.I32(), 0), entry)
	s.AddIncoming(dup, latch)
	i.AddIncoming(llvm.CI(llvm.I32(), 0), entry)
	i.AddIncoming(inext, latch)
	b.SetBlock(exit)
	b.Store(s, f.Params[0])
	b.Ret(nil)

	CSE(f)
	if dup.Parent != nil {
		t.Fatal("the duplicate add in the latch was not eliminated")
	}
	if s.Args[1] != llvm.Value(twice) {
		t.Errorf("header phi still reads %s from the latch, want %s", s.Args[1].Ident(), twice.Ident())
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in == dup {
				t.Fatalf("eliminated add left in block %s", blk.Name)
			}
			for _, a := range in.Args {
				if a == llvm.Value(dup) {
					t.Fatalf("%s still uses the eliminated add", in.Ident())
				}
			}
		}
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestStrengthReduce(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("sr", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I64())},
		&llvm.Param{Name: "x", Ty: llvm.I64()})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	m8 := b.Mul(f.Params[1], llvm.CI(llvm.I64(), 8))   // -> shl 3
	m16 := b.Mul(llvm.CI(llvm.I64(), 16), f.Params[1]) // -> shl 4 (const lhs)
	m10 := b.Mul(f.Params[1], llvm.CI(llvm.I64(), 10)) // stays mul
	s := b.Add(b.Add(m8, m16), m10)
	b.Store(s, f.Params[0])
	b.Ret(nil)

	StrengthReduce(f)
	shl, mul := 0, 0
	for _, in := range entry.Instrs {
		switch in.Op {
		case llvm.OpShl:
			shl++
		case llvm.OpMul:
			mul++
		}
	}
	if shl != 2 || mul != 1 {
		t.Errorf("want 2 shl + 1 mul, got %d shl %d mul", shl, mul)
	}
	// Semantics: x=3 → 3*8 + 16*3 + 3*10 = 24+48+30 = 102.
	out := interp.NewMem(8)
	mc := interp.NewMachine(m)
	if _, _, err := mc.Run(context.Background(), "sr", interp.PtrArg(out, 0), interp.IntArg(3)); err != nil {
		t.Fatal(err)
	}
	v := int64(out.Bytes[0]) | int64(out.Bytes[1])<<8
	if v != 102 {
		t.Errorf("sr(3) stored %d, want 102", v)
	}
}

func TestCSEDoesNotMergeLoads(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("l", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.I32())})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	l1 := b.Load(llvm.I32(), f.Params[0])
	b.Store(b.Add(l1, llvm.CI(llvm.I32(), 1)), f.Params[0])
	l2 := b.Load(llvm.I32(), f.Params[0]) // must NOT merge with l1
	b.Store(l2, f.Params[0])
	b.Ret(nil)
	CSE(f)
	loads := 0
	for _, in := range entry.Instrs {
		if in.Op == llvm.OpLoad {
			loads++
		}
	}
	if loads != 2 {
		t.Errorf("CSE must not merge loads across a store: %d loads", loads)
	}
}
