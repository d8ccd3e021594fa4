// Package repro_test holds the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (regenerating the same rows via the
// experiments package and reporting the headline metrics), plus
// micro-benchmarks of the pipeline phases.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"flag"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cfront"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	llparser "repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	mlirparser "repro/internal/mlir/parser"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/translate"
)

func cfg() experiments.Config { return experiments.Default() }

// reportTable re-renders one experiment per iteration and reports its row
// count so regressions in experiment coverage surface in benchmarks.
func reportTable(b *testing.B, fn func(experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := fn(cfg())
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable1Characteristics(b *testing.B) { reportTable(b, experiments.Table1) }

func BenchmarkTable2AdaptorFixes(b *testing.B) { reportTable(b, experiments.Table2) }

func BenchmarkTable3Resources(b *testing.B) { reportTable(b, experiments.Table3) }

func BenchmarkTable4CompileTime(b *testing.B) { reportTable(b, experiments.Table4) }

func BenchmarkFig6DirectiveSweep(b *testing.B) { reportTable(b, experiments.Fig6) }

func BenchmarkFig7DetailRetention(b *testing.B) { reportTable(b, experiments.Fig7) }

func BenchmarkFig8DSEFrontier(b *testing.B) {
	cfg := experiments.Default()
	cfg.SizeName = "MINI"
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "pareto-points")
}

// benchPrecheck gates the DSE feasibility pre-check in BenchmarkDSEParallel,
// so CI can benchmark the sweep with and without pruning and publish the
// comparison: go test -bench DSEParallel -precheck.
var benchPrecheck = flag.Bool("precheck", false, "enable the DSE feasibility pre-check in DSE benchmarks")

// BenchmarkDSEParallel sweeps the full DSE space through the evaluation
// engine at increasing worker counts, reporting wall-clock speedup over
// the single-worker (serial) sweep, plus a warm-cache run showing the
// content-addressed cache's effect on repeated exploration. The -precheck
// flag turns on the feasibility pre-check; the pruned-point count is
// reported so on/off runs can be compared directly. jacobi1d is the swept
// kernel: its resource floor gives the pre-check points to prune.
func BenchmarkDSEParallel(b *testing.B) {
	k := polybench.Get("jacobi1d")
	s, err := k.SizeOf("MINI")
	if err != nil {
		b.Fatal(err)
	}
	build := func() *mlir.Module { return k.Build(s) }
	tgt := hls.DefaultTarget()
	base := dse.Options{Precheck: *benchPrecheck}

	// Serial baseline for the speedup metric (median-free, but the sweep
	// is long enough to be stable).
	t0 := time.Now()
	serialRes, err := dse.ExploreWith(build, k.Name, tgt,
		dse.Options{Engine: engine.New(engine.Options{Workers: 1}), Precheck: base.Precheck})
	if err != nil {
		b.Fatal(err)
	}
	serial := time.Since(t0)

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := base
			opts.Engine = engine.New(engine.Options{Workers: w})
			for i := 0; i < b.N; i++ {
				if _, err := dse.ExploreWith(build, k.Name, tgt, opts); err != nil {
					b.Fatal(err)
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			b.ReportMetric(float64(serial)/float64(perOp), "speedup-vs-serial")
			b.ReportMetric(float64(len(serialRes.Pruned)), "pruned-points")
		})
	}

	b.Run("workers=4/cached", func(b *testing.B) {
		eng := engine.New(engine.Options{Workers: 4, Cache: true})
		opts := base
		opts.Engine = eng
		opts.CacheScope = "MINI"
		if _, err := dse.ExploreWith(build, k.Name, tgt, opts); err != nil {
			b.Fatal(err) // warm the cache outside the timed region
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dse.ExploreWith(build, k.Name, tgt, opts); err != nil {
				b.Fatal(err)
			}
		}
		perOp := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(serial)/float64(perOp), "speedup-vs-serial")
		b.ReportMetric(eng.Stats().HitRate(), "cache-hit-rate")
	})
}

// BenchmarkExperimentsCached regenerates the two optimized-directive
// tables through one cached engine per iteration pair: Table3 populates
// the cache, Table4 (same pairs) is served from it, and later iterations
// hit on everything. The hit rate and the per-iteration wall time are the
// headline metrics.
func BenchmarkExperimentsCached(b *testing.B) {
	eng := engine.New(engine.Options{Workers: 4, Cache: true})
	cfg := experiments.Config{SizeName: "MINI", Target: hls.DefaultTarget(), Engine: eng}
	var rows int
	for i := 0; i < b.N; i++ {
		t3, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t4, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t3.Rows) + len(t4.Rows)
	}
	st := eng.Stats()
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(st.HitRate(), "cache-hit-rate")
	b.ReportMetric(float64(st.CacheHits), "cache-hits")
}

// latencyBench reports per-kernel latency cycles of both flows as metrics
// (the series behind Fig 4 / Fig 5).
func latencyBench(b *testing.B, d flow.Directives) {
	for _, k := range polybench.All() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			s, err := k.SizeOf(cfg().SizeName)
			if err != nil {
				b.Fatal(err)
			}
			var aCycles, cCycles int64
			for i := 0; i < b.N; i++ {
				ares, err := flow.AdaptorFlow(k.Build(s), k.Name, d, cfg().Target)
				if err != nil {
					b.Fatal(err)
				}
				cres, err := flow.CxxFlow(k.Build(s), k.Name, d, cfg().Target)
				if err != nil {
					b.Fatal(err)
				}
				aCycles = ares.Report.LatencyCycles
				cCycles = cres.Report.LatencyCycles
			}
			b.ReportMetric(float64(aCycles), "adaptor-cycles")
			b.ReportMetric(float64(cCycles), "hlscpp-cycles")
			b.ReportMetric(float64(aCycles)/float64(cCycles), "ratio")
		})
	}
}

func BenchmarkFig4BaselineLatency(b *testing.B) {
	latencyBench(b, flow.Directives{})
}

func BenchmarkFig5OptimizedLatency(b *testing.B) {
	latencyBench(b, flow.Directives{Pipeline: true, II: 1,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0}})
}

// --- Phase micro-benchmarks ---

func gemmSmallModuleText(b *testing.B) string {
	b.Helper()
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		b.Fatal(err)
	}
	return k.Build(s).Print()
}

func BenchmarkMLIRParse(b *testing.B) {
	src := gemmSmallModuleText(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlirparser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLIRLowering(b *testing.B) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("SMALL")
	for i := 0; i < b.N; i++ {
		m := k.Build(s)
		if err := lower.AffineToSCF(m); err != nil {
			b.Fatal(err)
		}
		if err := lower.SCFToCF(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslate(b *testing.B) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("SMALL")
	m := k.Build(s)
	if err := lower.AffineToSCF(m); err != nil {
		b.Fatal(err)
	}
	if err := lower.SCFToCF(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(m, translate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptor(b *testing.B) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("SMALL")
	m := k.Build(s)
	if err := passes.MarkTop("gemm").Run(m); err != nil {
		b.Fatal(err)
	}
	if err := lower.AffineToSCF(m); err != nil {
		b.Fatal(err)
	}
	if err := lower.SCFToCF(m); err != nil {
		b.Fatal(err)
	}
	lm, err := translate.Translate(m, translate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	text := lm.Print()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := llparser.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Adapt(fresh, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCgenEmit(b *testing.B) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("SMALL")
	m := k.Build(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cgen.Emit(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFrontend(b *testing.B) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("SMALL")
	src, err := cgen.Emit(k.Build(s))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfront.Compile(src, cfront.Options{Top: "gemm"}); err != nil {
			b.Fatal(err)
		}
	}
}

// synthMix holds the final modules of the perfbench compile-pairs job mix:
// every polybench kernel at SMALL under every dse.Space() configuration and
// both flows. It is built once per test binary, outside any timer.
var synthMix struct {
	once sync.Once
	mods []*llvm.Module
	tops []string
	err  error
}

func loadSynthMix() error {
	synthMix.once.Do(func() {
		for _, k := range polybench.All() {
			s, err := k.SizeOf("SMALL")
			if err != nil {
				synthMix.err = err
				return
			}
			for _, c := range dse.Space() {
				for _, run := range []func(*mlir.Module, string, flow.Directives, hls.Target) (*flow.Result, error){
					flow.AdaptorFlow, flow.CxxFlow,
				} {
					res, err := run(k.Build(s), k.Name, c.D, hls.DefaultTarget())
					if err != nil {
						synthMix.err = fmt.Errorf("%s %s: %w", k.Name, c.Label, err)
						return
					}
					synthMix.mods = append(synthMix.mods, res.LLVM)
					synthMix.tops = append(synthMix.tops, k.Name)
				}
			}
		}
	})
	return synthMix.err
}

// BenchmarkSynthesize measures one synthesis of a module from the
// compile-pairs mix, cycling through all of them; ns/op and allocs/op are
// per-synthesis averages over the mix.
func BenchmarkSynthesize(b *testing.B) {
	if err := loadSynthMix(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(synthMix.mods)
		if _, err := hls.Synthesize(synthMix.mods[j], synthMix.tops[j], hls.DefaultTarget()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpGemm(b *testing.B) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	res, err := flow.AdaptorFlow(k.Build(s), "gemm", flow.Directives{}, hls.DefaultTarget())
	if err != nil {
		b.Fatal(err)
	}
	bufs := k.NewBuffers(s)
	polybench.Init(bufs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mems := make([]*interp.Mem, len(bufs))
		for j, buf := range bufs {
			mems[j] = interp.NewMem(int64(len(buf)) * 4)
			for x, v := range buf {
				mems[j].SetFloat32(x, v)
			}
		}
		if err := flow.Execute(res.LLVM, "gemm", mems); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowScaling reports how full-flow compile time scales with the
// kernel size (ablation for DESIGN.md's compile-cost discussion).
func BenchmarkFlowScaling(b *testing.B) {
	k := polybench.Get("gemm")
	for _, sz := range []string{"MINI", "SMALL"} {
		sz := sz
		b.Run(sz, func(b *testing.B) {
			s, err := k.SizeOf(sz)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := flow.AdaptorFlow(k.Build(s), "gemm",
					flow.Directives{}, hls.DefaultTarget()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnrollScaling is the ablation for the unroll model: latency as a
// function of the unroll factor through both flows.
func BenchmarkUnrollScaling(b *testing.B) {
	k := polybench.Get("conv2d")
	s, _ := k.SizeOf("SMALL")
	for _, u := range []int{1, 2, 4, 8} {
		u := u
		b.Run("unroll"+strconv.Itoa(u), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := flow.AdaptorFlow(k.Build(s), k.Name,
					flow.Directives{Unroll: u}, hls.DefaultTarget())
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Report.LatencyCycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}
