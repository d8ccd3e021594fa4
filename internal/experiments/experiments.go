// Package experiments reproduces the paper's evaluation: each function
// regenerates one table or figure (see DESIGN.md for the reconstruction
// rationale — the published text provides only the abstract, so the
// experiment set follows the abstract's claims and the standard methodology
// of the MLIR-HLS paper family).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
)

// Config selects problem size, device target, and evaluation engine.
type Config struct {
	SizeName string
	Target   hls.Target
	// Engine evaluates all flow runs. When nil, a process-wide shared
	// engine with caching enabled is used, so identical (kernel, size,
	// directives, target, flow) evaluations repeated across tables —
	// Table3/Table4 share every pair, Fig6/Fig8 share sweep points —
	// are served from the cache instead of re-synthesized.
	Engine *engine.Engine
	// Verify runs every adaptor and C++ evaluation under the differential
	// semantic oracle: it sets Job.VerifySemantics, so it reaches the
	// cache key and a compile-service daemon too. Table 2's raw
	// translations never run the oracle.
	Verify bool
}

// sharedEngine backs Config.Engine == nil. Cached results are read-only
// and keyed by content, so sharing across table generators is safe.
var sharedEngine = engine.New(engine.Options{Cache: true})

// engine returns the effective evaluation engine.
func (c Config) engine() *engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return sharedEngine
}

// Default returns the SMALL-size default-target configuration.
func Default() Config {
	return Config{SizeName: "SMALL", Target: hls.DefaultTarget()}
}

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Note   string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		sb.WriteString("note: " + t.Note + "\n")
	}
	return sb.String()
}

// optimizedDirectives is the directive set used by the "optimized"
// experiments: innermost pipelining at II=1 plus cyclic partitioning.
func optimizedDirectives() flow.Directives {
	return flow.Directives{
		Pipeline:  true,
		II:        1,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0},
	}
}

// Pair holds both flows' results for one kernel.
type Pair struct {
	Kernel  string
	Adaptor *flow.Result
	Cxx     *flow.Result
}

// input resolves a kernel at the configured size. The kernel+size pair is
// the full input identity, so every table evaluation can ship to a
// compile-service daemon.
func (c Config) input(k *polybench.Kernel) (engine.Input, error) {
	return engine.RemoteSpec{Kernel: k.Name, Size: c.SizeName}.Resolve()
}

// pairJobs emits the adaptor+cxx job pair for one kernel.
func pairJobs(k *polybench.Kernel, cfg Config, d flow.Directives) ([]engine.Job, error) {
	in, err := cfg.input(k)
	if err != nil {
		return nil, err
	}
	mk := func(kind engine.Kind) engine.Job {
		job := in.Job(kind, d, cfg.Target)
		job.Label = k.Name + " " + string(kind)
		job.VerifySemantics = cfg.Verify
		return job
	}
	return []engine.Job{mk(engine.KindAdaptor), mk(engine.KindCxx)}, nil
}

// pairsFromResults zips engine results (two per kernel, in kernel order)
// back into Pairs.
func pairsFromResults(kernels []*polybench.Kernel, rs []engine.JobResult) []*Pair {
	out := make([]*Pair, len(kernels))
	for i, k := range kernels {
		out[i] = &Pair{Kernel: k.Name, Adaptor: rs[2*i].Res, Cxx: rs[2*i+1].Res}
	}
	return out
}

// RunAllPairs fans both flows for every kernel across the engine's worker
// pool as one batch; results come back in kernel order.
func RunAllPairs(cfg Config, d flow.Directives) ([]*Pair, error) {
	kernels := polybench.All()
	var jobs []engine.Job
	for _, k := range kernels {
		js, err := pairJobs(k, cfg, d)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	rs, err := cfg.engine().RunBatch(context.Background(), jobs, engine.BatchOptions{})
	if err != nil {
		return nil, err
	}
	return pairsFromResults(kernels, rs), nil
}

// Table1 reports benchmark characteristics.
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Benchmark characteristics (" + cfg.SizeName + ")",
		Header: []string{"kernel", "description", "dims", "loops", "fp-ops/iter", "arrays"},
	}
	for _, k := range polybench.All() {
		s, err := k.SizeOf(cfg.SizeName)
		if err != nil {
			return nil, err
		}
		m := k.Build(s)
		loops, fpOps := 0, 0
		mlir.Walk(m.Op, func(o *mlir.Op) bool {
			switch o.Name {
			case mlir.OpAffineFor:
				loops++
			case mlir.OpAddF, mlir.OpSubF, mlir.OpMulF, mlir.OpDivF, mlir.OpNegF:
				fpOps++
			}
			return true
		})
		var dims []string
		keys := make([]string, 0, len(s.D))
		for dk := range s.D {
			keys = append(keys, dk)
		}
		sort.Strings(keys)
		for _, dk := range keys {
			dims = append(dims, fmt.Sprintf("%s=%d", dk, s.D[dk]))
		}
		t.Rows = append(t.Rows, []string{
			k.Name, k.Description, strings.Join(dims, " "),
			fmt.Sprintf("%d", loops), fmt.Sprintf("%d", fpOps),
			fmt.Sprintf("%d", len(k.ArgTypes(s))),
		})
	}
	return t, nil
}

// Table2 reports the version gap: HLS-gate violations of the raw translated
// IR versus the fixes the adaptor applies to close them. The raw
// translation is a gate check, not a design point, so it runs here; only
// the adaptor runs go through the engine.
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "Table 2",
		Title: "Raw mlir-translate IR vs the adaptor (violations -> fixes)",
		Header: []string{"kernel", "violations", "kinds", "adaptor-fixes",
			"descriptor", "intrinsic", "alloc"},
		Note: "every kernel's raw IR is rejected by the HLS frontend; the adaptor makes the direct path viable",
	}
	kernels := polybench.All()
	jobs := make([]engine.Job, len(kernels))
	violations := make([][]hls.Violation, len(kernels))
	for i, k := range kernels {
		in, err := cfg.input(k)
		if err != nil {
			return nil, err
		}
		if violations[i], _, err = flow.RawFlow(in.Build(), in.Top, flow.Directives{}); err != nil {
			return nil, fmt.Errorf("%s raw: %w", k.Name, err)
		}
		jobs[i] = in.Job(engine.KindAdaptor, flow.Directives{}, cfg.Target)
		jobs[i].Label = k.Name + " adaptor"
		jobs[i].VerifySemantics = cfg.Verify
	}
	rs, err := cfg.engine().RunBatch(context.Background(), jobs, engine.BatchOptions{})
	if err != nil {
		return nil, err
	}
	for i, k := range kernels {
		vs := violations[i]
		kinds := map[string]bool{}
		for _, v := range vs {
			kinds[v.Kind] = true
		}
		kindList := make([]string, 0, len(kinds))
		for kk := range kinds {
			kindList = append(kindList, kk)
		}
		sort.Strings(kindList)

		rep := rs[i].Res.Adaptor
		t.Rows = append(t.Rows, []string{
			k.Name,
			fmt.Sprintf("%d", len(vs)),
			strings.Join(kindList, ","),
			fmt.Sprintf("%d", rep.Total()),
			fmt.Sprintf("%d", rep.CountByKind("descriptor-to-array")),
			fmt.Sprintf("%d", rep.CountByKind("intrinsic-legalize")),
			fmt.Sprintf("%d", rep.CountByKind("malloc-to-alloca")),
		})
	}
	return t, nil
}

// latencyTable is shared by Fig4 (no directives) and Fig5 (optimized).
func latencyTable(cfg Config, id, title string, d flow.Directives) (*Table, error) {
	pairs, err := RunAllPairs(cfg, d)
	if err != nil {
		return nil, err
	}
	return pairsTable(id, title, pairs), nil
}

// pairsTable renders per-kernel latency pairs. An adaptor result the C++
// fallback produced after a direct-path failure is marked degraded: its
// cycles are the baseline flow's, so the ratio column says nothing about
// the direct path for that row.
func pairsTable(id, title string, pairs []*Pair) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"kernel", "adaptor-cycles", "hlscpp-cycles", "ratio"},
		Note:   "ratio = adaptor / hlscpp; comparable means ~1.0",
	}
	degraded := false
	for _, p := range pairs {
		mark := ""
		if p.Adaptor.Degraded {
			mark, degraded = "*", true
		}
		ratio := float64(p.Adaptor.Report.LatencyCycles) / float64(p.Cxx.Report.LatencyCycles)
		t.Rows = append(t.Rows, []string{
			p.Kernel,
			fmt.Sprintf("%d%s", p.Adaptor.Report.LatencyCycles, mark),
			fmt.Sprintf("%d", p.Cxx.Report.LatencyCycles),
			fmt.Sprintf("%.3f", ratio),
		})
	}
	if degraded {
		t.Note += "; * = degraded (direct path failed, C++ fallback result)"
	}
	return t
}

// Fig4 compares flow latencies without directives.
func Fig4(cfg Config) (*Table, error) {
	return latencyTable(cfg, "Fig 4",
		"Latency: adaptor flow vs HLS-C++ flow (no directives, "+cfg.SizeName+")",
		flow.Directives{})
}

// Fig5 compares flow latencies under the optimized directive set.
func Fig5(cfg Config) (*Table, error) {
	return latencyTable(cfg, "Fig 5",
		"Latency: adaptor flow vs HLS-C++ flow (pipeline II=1 + cyclic partition, "+cfg.SizeName+")",
		optimizedDirectives())
}

// Table3 compares resource utilization under the optimized directive set.
func Table3(cfg Config) (*Table, error) {
	pairs, err := RunAllPairs(cfg, optimizedDirectives())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Table 3",
		Title: "Resource utilization, optimized (" + cfg.SizeName + ")",
		Header: []string{"kernel", "LUT(a)", "LUT(c)", "FF(a)", "FF(c)",
			"DSP(a)", "DSP(c)", "BRAM(a)", "BRAM(c)"},
		Note: "(a) = adaptor flow, (c) = HLS-C++ flow",
	}
	for _, p := range pairs {
		a, c := p.Adaptor.Report, p.Cxx.Report
		t.Rows = append(t.Rows, []string{
			p.Kernel,
			fmt.Sprintf("%d", a.LUT), fmt.Sprintf("%d", c.LUT),
			fmt.Sprintf("%d", a.FF), fmt.Sprintf("%d", c.FF),
			fmt.Sprintf("%d", a.DSP), fmt.Sprintf("%d", c.DSP),
			fmt.Sprintf("%d", a.BRAM), fmt.Sprintf("%d", c.BRAM),
		})
	}
	return t, nil
}

// Fig6 sweeps directives on three kernels to show both flows respond to
// optimization the same way (directive fidelity through the adaptor).
func Fig6(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Fig 6",
		Title:  "Directive sweep (" + cfg.SizeName + "): latency under unroll/pipeline",
		Header: []string{"kernel", "directives", "adaptor-cycles", "hlscpp-cycles", "ratio"},
	}
	sweeps := []struct {
		name string
		d    flow.Directives
	}{
		{"none", flow.Directives{}},
		{"pipe", flow.Directives{Pipeline: true, II: 1}},
		{"pipe+part2", flow.Directives{Pipeline: true, II: 1,
			Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2, Dim: 0}}},
		{"pipe+part4", flow.Directives{Pipeline: true, II: 1,
			Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 4, Dim: 0}}},
		{"unroll2", flow.Directives{Unroll: 2}},
		{"unroll4", flow.Directives{Unroll: 4}},
		{"unroll4+part4", flow.Directives{Unroll: 4,
			Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 4, Dim: 0}}},
	}
	names := []string{"gemm", "jacobi2d", "conv2d"}
	var jobs []engine.Job
	for _, name := range names {
		k := polybench.Get(name)
		for _, sw := range sweeps {
			js, err := pairJobs(k, cfg, sw.d)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, js...)
		}
	}
	rs, err := cfg.engine().RunBatch(context.Background(), jobs, engine.BatchOptions{})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, name := range names {
		for _, sw := range sweeps {
			a, c := rs[i].Res.Report, rs[i+1].Res.Report
			i += 2
			ratio := float64(a.LatencyCycles) / float64(c.LatencyCycles)
			t.Rows = append(t.Rows, []string{
				name, sw.name,
				fmt.Sprintf("%d", a.LatencyCycles),
				fmt.Sprintf("%d", c.LatencyCycles),
				fmt.Sprintf("%.3f", ratio),
			})
		}
	}
	return t, nil
}

// Table4 reports compile-time breakdown per flow.
func Table4(cfg Config) (*Table, error) {
	pairs, err := RunAllPairs(cfg, optimizedDirectives())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Table 4",
		Title: "Flow compile time (" + cfg.SizeName + ", microseconds)",
		Header: []string{"kernel", "adaptor-total", "a:translate", "a:adaptor",
			"cxx-total", "c:emit", "c:frontend"},
		Note: "wall time of this reimplementation; relative phase weights are the signal",
	}
	us := func(d int64) string { return fmt.Sprintf("%d", d/1000) }
	for _, p := range pairs {
		t.Rows = append(t.Rows, []string{
			p.Kernel,
			us(p.Adaptor.Total.Nanoseconds()),
			us(p.Adaptor.Phases["translate"].Nanoseconds()),
			us(p.Adaptor.Phases["adaptor"].Nanoseconds()),
			us(p.Cxx.Total.Nanoseconds()),
			us(p.Cxx.Phases["emit-hlscpp"].Nanoseconds()),
			us(p.Cxx.Phases["c-frontend"].Nanoseconds()),
		})
	}
	return t, nil
}

// Fig7 measures expression-detail retention: how much IR each flow's final
// module carries relative to the information in the source (fewer
// rematerialized ops and casts = more detail preserved).
func Fig7(cfg Config) (*Table, error) {
	pairs, err := RunAllPairs(cfg, flow.Directives{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Fig 7",
		Title: "Expression detail through each flow (" + cfg.SizeName + ")",
		Header: []string{"kernel", "instrs(a)", "instrs(c)", "casts(a)", "casts(c)",
			"idx-width(a)", "idx-width(c)"},
		Note: "the C++ round trip narrows indices to 32-bit and reintroduces casts the direct IR path never had",
	}
	for _, p := range pairs {
		ia := countInstrs(p.Adaptor.LLVM, p.Kernel)
		ic := countInstrs(p.Cxx.LLVM, p.Kernel)
		t.Rows = append(t.Rows, []string{
			p.Kernel,
			fmt.Sprintf("%d", ia.total), fmt.Sprintf("%d", ic.total),
			fmt.Sprintf("%d", ia.casts), fmt.Sprintf("%d", ic.casts),
			fmt.Sprintf("%d", ia.idxBits), fmt.Sprintf("%d", ic.idxBits),
		})
	}
	return t, nil
}

type instrStats struct {
	total   int
	casts   int
	idxBits int
}

func countInstrs(m *llvm.Module, fn string) instrStats {
	f := m.FindFunc(fn)
	st := instrStats{idxBits: 64}
	if f == nil {
		return st
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			st.total++
			switch in.Op {
			case llvm.OpSExt, llvm.OpZExt, llvm.OpTrunc, llvm.OpFPExt, llvm.OpFPTrunc:
				st.casts++
			case llvm.OpPhi:
				if in.Ty.IsInt() && in.Ty.Bits < st.idxBits {
					st.idxBits = in.Ty.Bits
				}
			}
		}
	}
	return st
}

// Fig8 (extension beyond the paper) runs the automated design-space
// explorer over three kernels and reports each Pareto frontier — the
// productivity argument for a direct IR path: no C++ round trip sits inside
// the DSE loop.
func Fig8(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Fig 8",
		Title:  "DSE Pareto frontiers via the adaptor flow (" + cfg.SizeName + ", extension)",
		Header: []string{"kernel", "config", "latency", "area(equiv-LUT)"},
		Note:   "non-dominated latency/area points from the full directive space",
	}
	for _, name := range []string{"gemm", "jacobi2d", "conv2d"} {
		in, err := cfg.input(polybench.Get(name))
		if err != nil {
			return nil, err
		}
		// Precheck prunes pipeline points whose requested II sits below the
		// kernel's dependence-implied floor; the frontier is provably
		// unchanged, so the golden table is too.
		opts := dse.Options{Engine: cfg.engine(), FailFast: true, Precheck: true}
		if cfg.Verify {
			opts.Oracle = 1
		}
		res, err := dse.ExploreWith(in, cfg.Target, opts)
		if err != nil {
			return nil, err
		}
		for _, p := range res.Pareto {
			t.Rows = append(t.Rows, []string{
				name, p.Label,
				fmt.Sprintf("%d", p.Latency()),
				fmt.Sprintf("%.0f", p.Area),
			})
		}
	}
	return t, nil
}

// All regenerates every experiment.
func All(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, fn := range []func(Config) (*Table, error){
		Table1, Table2, Fig4, Fig5, Table3, Fig6, Table4, Fig7, Fig8,
	} {
		t, err := fn(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
