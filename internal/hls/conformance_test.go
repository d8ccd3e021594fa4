package hls

import (
	"strings"
	"testing"

	"repro/internal/llvm"
)

// conformantKernel builds a minimal in-subset function: void @k([4 x float]* %a)
// with a single load/fadd/store and one return.
func conformantKernel() *llvm.Module {
	m := llvm.NewModule("t")
	m.Flavor = llvm.FlavorHLS
	arr := llvm.ArrayOf(4, llvm.FloatT())
	f := llvm.NewFunction("k", llvm.Void(), &llvm.Param{Name: "a", Ty: llvm.Ptr(arr)})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	g := b.GEP(arr, f.Params[0], llvm.CI(llvm.I64(), 0), llvm.CI(llvm.I64(), 1))
	v := b.Load(llvm.FloatT(), g)
	s := b.FAdd(v, llvm.CF(llvm.FloatT(), 1))
	b.Store(s, g)
	b.Ret(nil)
	return m
}

func TestConformanceAcceptsSubset(t *testing.T) {
	if ds := Conformance(conformantKernel()); len(ds) != 0 {
		t.Fatalf("in-subset module has %d diagnostics; first: %s", len(ds), ds[0])
	}
}

func TestConformanceRejectsModernFlavor(t *testing.T) {
	m := conformantKernel()
	m.Flavor = llvm.FlavorModern
	ds := Conformance(m)
	if len(ds) == 0 {
		t.Fatal("modern-flavor module must fail conformance")
	}
	if ds[0].Check != "conformance-flavor" {
		t.Errorf("check = %s, want conformance-flavor", ds[0].Check)
	}
}

func TestConformanceRejectsOpcode(t *testing.T) {
	m := conformantKernel()
	f := m.FindFunc("k")
	// Retype an instruction into a non-subset opcode.
	f.Blocks[0].Instrs[0].Op = llvm.OpPtrToInt
	ds := Conformance(m)
	found := false
	for _, d := range ds {
		if d.Check == "conformance-opcode" && strings.Contains(d.Message, "ptrtoint") {
			found = true
			if d.Func != "k" || d.Block != "entry" || d.BlockPos != 0 {
				t.Errorf("diagnostic not located: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("ptrtoint not flagged; got %v", ds)
	}
}

func TestConformanceRejectsDescriptorParams(t *testing.T) {
	m := conformantKernel()
	f := m.FindFunc("k")
	f.Params = append(f.Params, &llvm.Param{Name: "a_offset", Ty: llvm.I64()})
	ds := Conformance(m)
	found := false
	for _, d := range ds {
		if d.Check == "conformance-descriptor-param" {
			found = true
		}
	}
	if !found {
		t.Fatalf("descriptor leftover not flagged; got %v", ds)
	}
}

func TestConformanceRejectsUnshapedPointerParam(t *testing.T) {
	m := llvm.NewModule("t")
	m.Flavor = llvm.FlavorHLS
	f := llvm.NewFunction("k", llvm.Void(), &llvm.Param{Name: "p", Ty: llvm.Ptr(llvm.FloatT())})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Ret(nil)
	ds := Conformance(m)
	found := false
	for _, d := range ds {
		if d.Check == "conformance-param-type" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unshaped pointer param not flagged; got %v", ds)
	}
}

func TestConformanceRejectsIntrinsicAndPredicate(t *testing.T) {
	m := conformantKernel()
	f := m.FindFunc("k")
	b := llvm.NewBuilder(f)
	b.SetBlock(f.Blocks[0])
	// Rebuild the terminator after appending: pull the ret off, add the
	// violations, put it back.
	instrs := f.Blocks[0].Instrs
	ret := instrs[len(instrs)-1]
	f.Blocks[0].Instrs = instrs[:len(instrs)-1]
	b.Call("llvm.lifetime.start.p0", llvm.Void())
	c := b.ICmp("ult", llvm.CI(llvm.I32(), 1), llvm.CI(llvm.I32(), 2))
	_ = c
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, ret)
	ds := Conformance(m)
	var gotCall, gotPred bool
	for _, d := range ds {
		switch d.Check {
		case "conformance-call":
			gotCall = true
		case "conformance-predicate":
			gotPred = true
		}
	}
	if !gotCall {
		t.Error("llvm.* intrinsic not flagged")
	}
	if !gotPred {
		t.Error("unsigned icmp predicate not flagged")
	}
}

func TestConformanceSubsumesCheck(t *testing.T) {
	// Anything the readable-subset blacklist rejects must also fail the
	// conformance whitelist, including a dynamic allocation whose callee
	// the module declares.
	size := func(*llvm.Function) llvm.Value { return llvm.CI(llvm.I64(), 64) }
	array := func(f *llvm.Function) llvm.Value { return f.Params[0] }
	for _, c := range []struct {
		name    string
		declare bool
		callee  string
		ret     *llvm.Type
		arg     func(*llvm.Function) llvm.Value
	}{
		{"malloc", false, "malloc", llvm.Ptr(llvm.I8()), size},
		{"declared malloc", true, "malloc", llvm.Ptr(llvm.I8()), size},
		{"declared free", true, "free", llvm.Void(), array},
	} {
		m := conformantKernel()
		f := m.FindFunc("k")
		if c.declare {
			d := llvm.NewFunction(c.callee, c.ret, &llvm.Param{Name: "x", Ty: c.arg(f).Type()})
			d.IsDecl = true
			m.AddFunc(d)
		}
		instrs := f.Blocks[0].Instrs
		ret := instrs[len(instrs)-1]
		f.Blocks[0].Instrs = instrs[:len(instrs)-1]
		b := llvm.NewBuilder(f)
		b.SetBlock(f.Blocks[0])
		b.Call(c.callee, c.ret, c.arg(f))
		f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, ret)
		vs := Check(m)
		if len(vs) == 0 || vs[0].Kind != VDynamicAlloc {
			t.Fatalf("%s: readable check should reject the call as %s: %v", c.name, VDynamicAlloc, vs)
		}
		ds := Conformance(m)
		if len(ds) == 0 || ds[0].Check != "conformance-call" {
			t.Fatalf("%s: conformance must subsume the readable check; got %v", c.name, ds)
		}
	}
}
