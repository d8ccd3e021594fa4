package flow

import (
	"testing"

	"repro/internal/hls"
	"repro/internal/llvm/interp"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
)

func memsFrom(bufs [][]float32) []*interp.Mem {
	out := make([]*interp.Mem, len(bufs))
	for i, b := range bufs {
		m := interp.NewMem(int64(len(b)) * 4)
		for j, v := range b {
			m.SetFloat32(j, v)
		}
		out[i] = m
	}
	return out
}

func readBack(mems []*interp.Mem) [][]float32 {
	out := make([][]float32, len(mems))
	for i, m := range mems {
		out[i] = m.Float32Slice()
	}
	return out
}

func compare(t *testing.T, flowName, kernel string, got, want [][]float32) {
	t.Helper()
	for ai := range want {
		for i := range want[ai] {
			if got[ai][i] != want[ai][i] {
				t.Fatalf("%s/%s: arg %d elem %d: flow %g vs reference %g",
					kernel, flowName, ai, i, got[ai][i], want[ai][i])
			}
		}
	}
}

// TestBothFlowsFunctionallyCorrect is the co-simulation stand-in: every
// kernel, both flows, executed and compared bit-exactly against the float32
// Go reference.
func TestBothFlowsFunctionallyCorrect(t *testing.T) {
	tgt := hls.DefaultTarget()
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			want := k.NewBuffers(s)
			polybench.Init(want)
			k.Ref(s, want)

			// Adaptor flow.
			ares, err := AdaptorFlow(k.Build(s), k.Name, Directives{}, tgt)
			if err != nil {
				t.Fatalf("adaptor flow: %v", err)
			}
			bufs := k.NewBuffers(s)
			polybench.Init(bufs)
			mems := memsFrom(bufs)
			if err := Execute(ares.LLVM, k.Name, mems); err != nil {
				t.Fatalf("adaptor flow execute: %v", err)
			}
			compare(t, "adaptor", k.Name, readBack(mems), want)

			// C++ flow.
			cres, err := CxxFlow(k.Build(s), k.Name, Directives{}, tgt)
			if err != nil {
				t.Fatalf("cxx flow: %v", err)
			}
			bufs2 := k.NewBuffers(s)
			polybench.Init(bufs2)
			mems2 := memsFrom(bufs2)
			if err := Execute(cres.LLVM, k.Name, mems2); err != nil {
				t.Fatalf("cxx flow execute: %v", err)
			}
			compare(t, "cxx", k.Name, readBack(mems2), want)
		})
	}
}

// TestFlowsComparableLatency checks the paper's headline claim shape: the
// two flows' latencies track each other within a factor band on every
// kernel.
func TestFlowsComparableLatency(t *testing.T) {
	tgt := hls.DefaultTarget()
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, _ := k.SizeOf("MINI")
			a, err := AdaptorFlow(k.Build(s), k.Name, Directives{Pipeline: true, II: 1}, tgt)
			if err != nil {
				t.Fatalf("adaptor: %v", err)
			}
			c, err := CxxFlow(k.Build(s), k.Name, Directives{Pipeline: true, II: 1}, tgt)
			if err != nil {
				t.Fatalf("cxx: %v", err)
			}
			ratio := float64(a.Report.LatencyCycles) / float64(c.Report.LatencyCycles)
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("latency ratio out of comparable band: adaptor=%d cxx=%d (%.2fx)",
					a.Report.LatencyCycles, c.Report.LatencyCycles, ratio)
			}
		})
	}
}

func TestRawFlowRejectedEverywhere(t *testing.T) {
	for _, k := range polybench.All() {
		s, _ := k.SizeOf("MINI")
		vs, lm, err := RawFlow(k.Build(s), k.Name, Directives{})
		if err != nil {
			t.Fatalf("%s: raw flow errored: %v", k.Name, err)
		}
		if len(vs) == 0 {
			t.Errorf("%s: raw translated IR unexpectedly passed the HLS gate", k.Name)
		}
		if lm == nil {
			t.Fatalf("%s: raw flow lost the module", k.Name)
		}
		// Conformance subsumes the gate: it rejects the module, and in
		// every function the gate names.
		flagged := map[string]bool{}
		for _, d := range hls.Conformance(lm) {
			flagged[d.Func] = true
		}
		if len(flagged) == 0 {
			t.Errorf("%s: conformance accepts the raw module the gate rejects: %v", k.Name, vs)
		}
		for _, v := range vs {
			if v.Func != "" && !flagged[v.Func] {
				t.Errorf("%s: gate rejects @%s (%s) but conformance flags nothing there", k.Name, v.Func, v)
			}
		}
	}
}

func TestAdaptorReportPopulated(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	res, err := AdaptorFlow(k.Build(s), k.Name, Directives{}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptor == nil || res.Adaptor.Total() == 0 {
		t.Error("adaptor fix report empty")
	}
	if res.Phases["translate"] == 0 && res.Phases["adaptor"] == 0 {
		t.Error("phase timing not recorded")
	}
}

func TestDirectivesChangeOutcome(t *testing.T) {
	k := polybench.Get("gemm")
	tgt := hls.DefaultTarget()
	base, err := AdaptorFlow(k.Build(mustSize(t, k, "MINI")), k.Name, Directives{}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := AdaptorFlow(k.Build(mustSize(t, k, "MINI")), k.Name, Directives{
		Pipeline: true, II: 1, Unroll: 2,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0},
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Report.LatencyCycles >= base.Report.LatencyCycles {
		t.Errorf("directives should reduce latency: %d -> %d",
			base.Report.LatencyCycles, opt.Report.LatencyCycles)
	}
	// And the optimized design must still be correct.
	s := mustSize(t, k, "MINI")
	want := k.NewBuffers(s)
	polybench.Init(want)
	k.Ref(s, want)
	bufs := k.NewBuffers(s)
	polybench.Init(bufs)
	mems := memsFrom(bufs)
	if err := Execute(opt.LLVM, k.Name, mems); err != nil {
		t.Fatal(err)
	}
	compare(t, "adaptor-optimized", k.Name, readBack(mems), want)
}

func mustSize(t *testing.T, k *polybench.Kernel, name string) polybench.Size {
	t.Helper()
	s, err := k.SizeOf(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCxxFlowKeepsSource(t *testing.T) {
	k := polybench.Get("jacobi2d")
	s, _ := k.SizeOf("MINI")
	res, err := CxxFlow(k.Build(s), k.Name, Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.CSource == "" {
		t.Error("C++ source not captured")
	}
	if res.Report == nil || len(res.Report.Loops) == 0 {
		t.Error("synthesis report missing")
	}
}
