package analysis_test

import (
	"slices"
	"testing"

	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
	"repro/internal/llvm/passes"
)

// loopFunc builds entry -> h <-> body, h -> exit: one loop whose blocks
// carry the numbers 1 and 2.
func loopFunc(name string) (*llvm.Function, map[string]*llvm.Block) {
	f := llvm.NewFunction(name, llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.I1()})
	blocks := map[string]*llvm.Block{}
	for _, n := range []string{"entry", "h", "body", "exit"} {
		blocks[n] = f.AddBlock(n)
	}
	b := llvm.NewBuilder(f)
	b.SetBlock(blocks["entry"])
	b.Br(blocks["h"])
	b.SetBlock(blocks["h"])
	b.CondBr(f.Params[0], blocks["body"], blocks["exit"])
	b.SetBlock(blocks["body"])
	b.Br(blocks["h"])
	b.SetBlock(blocks["exit"])
	b.Ret(nil)
	return f, blocks
}

// TestCFGBlocksOutsideTheFunction asks f's analyses about blocks f does not
// hold: another function's blocks, which carry the same numbers as f's, and
// a detached block that was never numbered. They get the answers the
// pointer-keyed maps gave: no predecessors, unreachable, in no loop.
func TestCFGBlocksOutsideTheFunction(t *testing.T) {
	f, fb := loopFunc("f")
	g, gb := loopFunc("g")
	cfg := analysis.NewCFG(f)
	analysis.NewCFG(g)
	dt := analysis.NewDomTree(cfg)
	loop := analysis.FindLoops(cfg, dt).ByHeader(fb["h"])
	if loop == nil {
		t.Fatal("no loop at h")
	}
	detached := &llvm.Block{Name: "detached"}
	for _, b := range []*llvm.Block{gb["entry"], gb["h"], gb["body"], detached} {
		if ps := cfg.Preds(b); ps != nil {
			t.Errorf("Preds(%s) = %d blocks, want none", b.Name, len(ps))
		}
		if i := cfg.Index(b); i != -1 {
			t.Errorf("Index(%s) = %d, want -1", b.Name, i)
		}
		if cfg.Reachable(b) {
			t.Errorf("%s reachable", b.Name)
		}
		if loop.Contains(b) {
			t.Errorf("loop contains %s", b.Name)
		}
		if dt.IDom(b) != nil || dt.Dominates(fb["entry"], b) {
			t.Errorf("%s has a dominator in f", b.Name)
		}
	}
	for _, n := range []string{"h", "body"} {
		if !loop.Contains(fb[n]) {
			t.Errorf("loop lacks f's %s", n)
		}
	}
	if got := cfg.Preds(fb["h"]); !slices.Equal(got, []*llvm.Block{fb["entry"], fb["body"]}) {
		t.Errorf("Preds(h) = %v", got)
	}
}

// TestCFGBranchTargetOutsideTheFunction gives a branch target f does not
// hold, as the parser makes for an undefined label, a number after f's
// blocks: it has f's predecessor and is reachable.
func TestCFGBranchTargetOutsideTheFunction(t *testing.T) {
	f := llvm.NewFunction("f", llvm.Void())
	entry := f.AddBlock("entry")
	nowhere := &llvm.Block{Name: "nowhere"}
	entry.Append(&llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{nowhere}})
	cfg := analysis.NewCFG(f)
	if got := cfg.Preds(nowhere); !slices.Equal(got, []*llvm.Block{entry}) {
		t.Errorf("Preds(nowhere) = %v, want [entry]", got)
	}
	if cfg.Index(nowhere) != 1 || !cfg.Reachable(nowhere) || len(cfg.Order) != 2 {
		t.Errorf("Index(nowhere) = %d, Order has %d blocks; want 1 of 2", cfg.Index(nowhere), len(cfg.Order))
	}
}

// TestCFGOutlivesSimplifyCFG queries a CFG built before SimplifyCFG dropped
// an unreachable block and f was renumbered: every block, the dropped one
// and those whose numbers moved, gets the answer it had.
func TestCFGOutlivesSimplifyCFG(t *testing.T) {
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.I1()})
	blocks := map[string]*llvm.Block{}
	for _, n := range []string{"entry", "dead", "l", "r", "join"} {
		blocks[n] = f.AddBlock(n)
	}
	b := llvm.NewBuilder(f)
	b.SetBlock(blocks["entry"])
	b.CondBr(f.Params[0], blocks["l"], blocks["r"])
	for _, n := range []string{"dead", "l", "r"} {
		b.SetBlock(blocks[n])
		b.Br(blocks["join"])
	}
	b.SetBlock(blocks["join"])
	b.Ret(nil)

	cfg := analysis.NewCFG(f)
	type answer struct {
		preds []*llvm.Block
		index int
	}
	want := map[string]answer{
		"entry": {nil, 0},
		"dead":  {nil, -1},
		"r":     {[]*llvm.Block{blocks["entry"]}, 1},
		"l":     {[]*llvm.Block{blocks["entry"]}, 2},
		"join":  {[]*llvm.Block{blocks["dead"], blocks["l"], blocks["r"]}, 3},
	}
	passes.SimplifyCFG(f)
	if slices.Contains(f.Blocks, blocks["dead"]) || len(f.Blocks) != 4 {
		t.Fatalf("SimplifyCFG kept %d blocks, want dead dropped", len(f.Blocks))
	}
	if err := f.Verify(); err != nil { // renumbers f
		t.Fatal(err)
	}
	if blocks["l"].ID != 1 {
		t.Fatalf("l renumbered to %d, want 1", blocks["l"].ID)
	}
	for n, w := range want {
		bl := blocks[n]
		if got := cfg.Preds(bl); !slices.Equal(got, w.preds) {
			t.Errorf("Preds(%s) = %v, want %v", n, got, w.preds)
		}
		if got := cfg.Index(bl); got != w.index {
			t.Errorf("Index(%s) = %d, want %d", n, got, w.index)
		}
		if cfg.Reachable(bl) != (w.index >= 0) {
			t.Errorf("Reachable(%s) = %v", n, cfg.Reachable(bl))
		}
	}
}

// TestLoopBlocksInLayoutOrder checks Loop.Blocks against f.Blocks order,
// which differs from reverse postorder here.
func TestLoopBlocksInLayoutOrder(t *testing.T) {
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.I1()})
	blocks := map[string]*llvm.Block{}
	for _, n := range []string{"entry", "latch", "h", "b2", "b1", "exit"} {
		blocks[n] = f.AddBlock(n)
	}
	b := llvm.NewBuilder(f)
	b.SetBlock(blocks["entry"])
	b.Br(blocks["h"])
	b.SetBlock(blocks["h"])
	b.CondBr(f.Params[0], blocks["b1"], blocks["exit"])
	b.SetBlock(blocks["b1"])
	b.Br(blocks["b2"])
	b.SetBlock(blocks["b2"])
	b.Br(blocks["latch"])
	b.SetBlock(blocks["latch"])
	b.Br(blocks["h"])
	b.SetBlock(blocks["exit"])
	b.Ret(nil)

	cfg := analysis.NewCFG(f)
	l := analysis.FindLoops(cfg, analysis.NewDomTree(cfg)).ByHeader(blocks["h"])
	if l == nil {
		t.Fatal("no loop at h")
	}
	want := []*llvm.Block{blocks["latch"], blocks["h"], blocks["b2"], blocks["b1"]}
	if got := l.Blocks(); !slices.Equal(got, want) {
		names := make([]string, len(got))
		for i, x := range got {
			names[i] = x.Name
		}
		t.Errorf("Blocks() = %v, want latch h b2 b1", names)
	}
}

// diamondChain builds n diamonds in a row, each closing a loop back to its
// head: 5n+1 blocks.
func diamondChain(n int) *llvm.Function {
	f := llvm.NewFunction("chain", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.I1()})
	b := llvm.NewBuilder(f)
	prev := f.AddBlock("entry")
	for i := 0; i < n; i++ {
		h, l, r, j := f.AddBlock("h"), f.AddBlock("l"), f.AddBlock("r"), f.AddBlock("j")
		b.SetBlock(prev)
		b.Br(h)
		b.SetBlock(h)
		b.CondBr(f.Params[0], l, r)
		b.SetBlock(l)
		b.Br(j)
		b.SetBlock(r)
		b.Br(j)
		prev = f.AddBlock("next")
		b.SetBlock(j)
		b.CondBr(f.Params[0], h, prev)
	}
	b.SetBlock(prev)
	b.Ret(nil)
	return f
}

// TestNewCFGAllocs pins NewCFG to a fixed number of allocations whatever
// the block count: its tables are slices over block numbers.
func TestNewCFGAllocs(t *testing.T) {
	first := -1.0
	for _, n := range []int{1, 16, 256} {
		f := diamondChain(n)
		got := testing.AllocsPerRun(20, func() { analysis.NewCFG(f) })
		if got > 8 {
			t.Errorf("%d blocks: NewCFG makes %.0f allocations, want at most 8", len(f.Blocks), got)
		}
		if first < 0 {
			first = got
		} else if got != first {
			t.Errorf("%d blocks: NewCFG makes %.0f allocations, %.0f for one diamond", len(f.Blocks), got, first)
		}
	}
}
