package hls_test

import (
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
)

// localStencilSrc reads a local buffer three times per iteration of its
// second loop, so that loop's port floor comes from the buffer, which no
// partition directive widens; no polybench or corpus kernel pipelines a
// loop over a local buffer.
const localStencilSrc = `module {
  func.func @localstencil(%arg0: memref<18xf32>, %arg1: memref<16xf32>) {
    %0 = memref.alloca() : memref<18xf32>
    affine.for %1 = 0 to 18 {
      %2 = affine.load %arg0[%1] : memref<18xf32>
      affine.store %2, %0[%1] : memref<18xf32>
    }
    affine.for %3 = 0 to 16 {
      %4 = affine.load %0[%3] : memref<18xf32>
      %5 = affine.load %0[%3] map affine_map<(d0) -> (d0 + 1)> : memref<18xf32>
      %6 = affine.load %0[%3] map affine_map<(d0) -> (d0 + 2)> : memref<18xf32>
      %7 = arith.addf %4, %5 : f32
      %8 = arith.addf %7, %6 : f32
      affine.store %8, %arg1[%3] : memref<16xf32>
    }
    func.return
  }
}
`

// TestLoopBoundsSetII checks the DSE pre-check's premise against the
// schedule: on both flows' final modules for the 18 kernels at MINI, the
// kgen corpus and localStencilSrc × dse.Space(), under the default,
// inferred, 5 ns and 1-port targets, every pipelined loop synthesis does not
// flatten into its parent reports II = max(requested II, RecMII, ResMII
// under the point's partition), with RecMII and ResMII read from
// hls.LoopBounds.
func TestLoopBoundsSetII(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the kernel grid under four targets")
	}
	type input struct {
		top   string
		build func() *mlir.Module
	}
	var ins []input
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{k.Name, func() *mlir.Module { return k.Build(s) }})
	}
	for _, k := range kgen.CorpusKernels() {
		ins = append(ins, input{k.Name, k.Build})
	}
	ins = append(ins, input{"localstencil", func() *mlir.Module {
		m, err := parser.Parse(localStencilSrc)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}})
	inferred := hls.DefaultTarget()
	inferred.CostModel = hls.CostInferred
	fast := hls.DefaultTarget()
	fast.ClockNs = 5
	onePort := hls.DefaultTarget()
	onePort.MemPorts = 1
	targets := []struct {
		name string
		tgt  hls.Target
	}{{"default", hls.DefaultTarget()}, {"inferred", inferred}, {"5ns", fast}, {"1port", onePort}}

	checked, local := 0, 0
	for _, in := range ins {
		for _, c := range dse.Space() {
			if !c.D.Pipeline {
				continue
			}
			var kind string
			var factor int
			if p := c.D.Partition; p != nil {
				kind, factor = p.Kind, p.Factor
			}
			for _, fl := range []struct {
				name string
				run  func(*mlir.Module, string, flow.Directives, hls.Target) (*flow.Result, error)
			}{{"adaptor", flow.AdaptorFlow}, {"cxx", flow.CxxFlow}} {
				res, err := fl.run(in.build(), in.top, c.D, hls.DefaultTarget())
				if err != nil {
					t.Fatalf("%s %s %s: %v", in.top, c.Label, fl.name, err)
				}
				for _, tg := range targets {
					rep, err := hls.Synthesize(res.LLVM, in.top, tg.tgt)
					if err != nil {
						t.Fatalf("%s %s %s %s: %v", in.top, c.Label, fl.name, tg.name, err)
					}
					bounds := map[string]hls.LoopBound{}
					for _, lb := range hls.LoopBounds(hls.Analyze(res.LLVM.FindFunc(in.top)), tg.tgt) {
						bounds[lb.Header.Name] = lb
					}
					for _, l := range rep.Loops {
						if !l.Pipelined || l.Flattened {
							continue
						}
						lb, ok := bounds[l.Header]
						if !ok || !lb.Pipelined {
							t.Fatalf("%s %s %s %s: no pipelined bound for loop %%%s",
								in.top, c.Label, fl.name, tg.name, l.Header)
						}
						want := max(c.D.Canon().II, lb.RecMII, lb.ResMII(tg.tgt, kind, factor))
						if l.II != want {
							t.Errorf("%s %s %s %s: loop %%%s II=%d, want max(request %d, RecMII %d, ResMII %d) = %d",
								in.top, c.Label, fl.name, tg.name, l.Header, l.II,
								c.D.Canon().II, lb.RecMII, lb.ResMII(tg.tgt, kind, factor), want)
						}
						checked++
						if lb.LocalAccesses > 0 {
							local++
						}
					}
				}
			}
		}
	}
	if checked == 0 || local == 0 {
		t.Fatalf("%d pipelined loops checked, %d of them over a local buffer; want some of each", checked, local)
	}
	t.Logf("%d pipelined loops checked, %d of them over a local buffer", checked, local)
}
