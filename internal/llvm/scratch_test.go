package llvm_test

import (
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/polybench"
	"repro/internal/raceflag"
)

// TestFunctionVerifyAllocs pins the verifier's allocations on the pipelined
// adaptor flow's final gemm module at SMALL: the SSA-name set comes from a
// pool, so what is left is the predecessor table.
func TestFunctionVerifyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	f := res.LLVM.FindFunc(k.Name)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = f.Verify() }); n > 2 {
		t.Errorf("Verify makes %.0f allocations, want at most 2", n)
	}
}

// brokenValue is an operand whose type lookup panics, stopping a
// verification halfway through its function.
type brokenValue struct{}

func (brokenValue) Type() *llvm.Type { panic("type of a broken operand") }
func (brokenValue) Ident() string    { return "%broken" }

// addChain builds a function of n adds named t0 to t(n-1). With broken set,
// the last add's first operand is a brokenValue.
func addChain(n int, broken bool) *llvm.Function {
	i32 := llvm.I32()
	f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "x", Ty: i32})
	b := llvm.NewBuilder(f)
	b.SetBlock(f.AddBlock("entry"))
	var v llvm.Value = f.Params[0]
	for i := 0; i < n; i++ {
		in := b.Add(v, llvm.CI(i32, 1))
		if broken && i == n-1 {
			in.Args[0] = brokenValue{}
		}
		v = in
	}
	b.Ret(nil)
	return f
}

// TestVerifyRecycledNameSet checks that a verification starts from an empty
// name set even when the one before it panicked with its names still in
// the pooled set, and that duplicates are still caught afterwards.
func TestVerifyRecycledNameSet(t *testing.T) {
	for round := 0; round < 4; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("verifying the broken chain did not panic")
				}
			}()
			_ = addChain(8, true).Verify()
		}()
		if err := addChain(8, false).Verify(); err != nil {
			t.Fatalf("round %d: a valid function after a panicked verification: %v", round, err)
		}
		dup := addChain(8, false)
		dup.Blocks[0].Instrs[7].Name = "t0"
		if err := dup.Verify(); err == nil || !strings.Contains(err.Error(), "duplicate SSA name %t0") {
			t.Fatalf("round %d: duplicate name: got %v", round, err)
		}
	}
}

// TestVerifyDuplicateNames checks each way a name can repeat: two
// parameters, an instruction and a parameter, and one instruction listed
// twice. The name set keeps only hashes, so each report also needs the
// earlier name found.
func TestVerifyDuplicateNames(t *testing.T) {
	i32 := llvm.I32()
	build := func(second string, twice bool) *llvm.Function {
		f := llvm.NewFunction("f", llvm.Void(), &llvm.Param{Name: "x", Ty: i32}, &llvm.Param{Name: second, Ty: i32})
		b := llvm.NewBuilder(f)
		b.SetBlock(f.AddBlock("entry"))
		in := b.Add(f.Params[0], llvm.CI(i32, 1))
		if twice {
			f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, in)
		}
		b.Ret(nil)
		return f
	}
	for _, c := range []struct {
		second string
		twice  bool
		want   string
	}{
		{"y", false, ""},
		{"x", false, "duplicate parameter name %x"},
		{"t0", false, "duplicate SSA name %t0"},
		{"y", true, "duplicate SSA name %t0"},
	} {
		err := build(c.second, c.twice).Verify()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("parameters x, %s, add listed twice %v: got %v, want %q", c.second, c.twice, err, c.want)
		}
	}
}
