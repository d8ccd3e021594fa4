package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/polybench"
)

func testConfig(t *testing.T, workload string, seed uint64, seconds time.Duration, trace bool) config {
	t.Helper()
	return config{workload: workload, seed: seed, seconds: seconds, trace: trace, workers: 2, out: t.TempDir()}
}

func pairKeys(t *testing.T, seed uint64, workload string, rounds int) []string {
	t.Helper()
	g, err := newPairGen(seed, workload, "MINI")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for r := 0; r < rounds; r++ {
		for _, j := range g.round(r) {
			keys = append(keys, j.key())
		}
	}
	return keys
}

func TestPairJobsFollowTheSeed(t *testing.T) {
	a := pairKeys(t, 7, "compile-pairs", 3)
	if b := pairKeys(t, 7, "compile-pairs", 3); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different job lists")
	}
	if c := pairKeys(t, 8, "compile-pairs", 3); reflect.DeepEqual(a, c) {
		t.Fatal("a different seed gave the same job list")
	}
	if d := pairKeys(t, 7, "verified-pairs", 3); reflect.DeepEqual(a, d) {
		t.Fatal("two workloads with one seed gave the same job list")
	}
}

func TestPairRoundsCoverTheSpace(t *testing.T) {
	g, err := newPairGen(3, "compile-pairs", "MINI")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for r := 0; r < g.rounds(); r++ {
		round := g.round(r)
		if len(round) != 2*len(g.kernels) {
			t.Fatalf("round %d has %d jobs, want %d", r, len(round), 2*len(g.kernels))
		}
		for _, j := range round {
			if seen[j.key()] {
				t.Fatalf("job %s repeats within the first %d rounds", j.key(), g.rounds())
			}
			seen[j.key()] = true
		}
	}
	if want := 2 * len(g.kernels) * len(g.space); len(seen) != want {
		t.Fatalf("first %d rounds hold %d distinct jobs, want %d", g.rounds(), len(seen), want)
	}
}

func requestSeq(t *testing.T, seed uint64, client int) []servePoint {
	t.Helper()
	g, err := newServeGen(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g.requests(client)
}

func TestServeRequestsFollowTheSeed(t *testing.T) {
	for client := 0; client < 2; client++ {
		a := requestSeq(t, 7, client)
		if b := requestSeq(t, 7, client); !reflect.DeepEqual(a, b) {
			t.Fatalf("client %d: the same seed gave different request sequences", client)
		}
		if c := requestSeq(t, 8, client); reflect.DeepEqual(a, c) {
			t.Fatalf("client %d: a different seed gave the same request sequence", client)
		}
	}
}

// TestServeClientsSweepEverything checks that each client's requests are
// whole dse.Space() sweeps, one per (kernel, flow), and that set-up stores
// half of the sweeps.
func TestServeClientsSweepEverything(t *testing.T) {
	g, err := newServeGen(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := len(g.kernels) * len(serveKinds)
	for c, order := range g.orders {
		seen := map[sweep]bool{}
		for _, s := range order {
			seen[s] = true
		}
		if len(order) != want || len(seen) != want {
			t.Fatalf("client %d runs %d sweeps (%d distinct), want %d", c, len(order), len(seen), want)
		}
		reqs := g.requests(c)
		for i, p := range reqs {
			if s := order[i/len(g.space)]; p != (servePoint{kernel: s.kernel, config: i % len(g.space), kind: s.kind}) {
				t.Fatalf("client %d request %d is %s, not the next point of its sweep", c, i, g.label(p))
			}
		}
	}
	if len(g.stored) != want/2 {
		t.Fatalf("set-up stores %d sweeps, want %d", len(g.stored), want/2)
	}
}

func TestReplayMapsEveryUnit(t *testing.T) {
	for _, kind := range serveKinds {
		for _, c := range dse.Space() {
			for _, u := range flow.PipelineUnits(string(kind), c.D) {
				switch u.Stage {
				case "mlir-opt":
					if _, err := mlirPass(u.Pass, "top", c.D); err != nil {
						t.Error(err)
					}
				case "llvm-opt":
					if _, ok := llvmPass(u.Pass); !ok {
						t.Errorf("no LLVM pass for unit %s", u)
					}
				}
			}
		}
	}
	if _, err := mlirPass("no-such-pass", "top", flow.Directives{}); err == nil {
		t.Error("an unknown MLIR unit must fail the replay")
	}
}

// TestCheckersCatchWrongOutputs shows that the output checker rejects a
// module whose results differ from the reference, and that the replay
// guard rejects a replay whose report or final LLVM differs from the
// flow's.
func TestCheckersCatchWrongOutputs(t *testing.T) {
	g, err := newPairGen(1, "compile-pairs", "MINI")
	if err != nil {
		t.Fatal(err)
	}
	j := g.round(0)[0]
	full := &pairRun{distinct: map[string]*distinctOut{}}
	// An empty run makes guardPair evaluate the job through the engine.
	if err := guardPair(full, j, false, &hls.Report{}, ""); err == nil {
		t.Fatal("replay guard accepted an empty report")
	}
	want := full.distinct[j.key()]
	lm, err := flow.PrepareLLVM(j.Kernel.Build(j.Size), j.Kernel.Name, j.Config.D)
	if err != nil {
		t.Fatal(err)
	}
	var rep hls.Report
	if err := json.Unmarshal([]byte(want.reportJSON), &rep); err != nil {
		t.Fatal(err)
	}
	if err := guardPair(full, j, false, &rep, want.final); err != nil {
		t.Fatalf("replay guard rejected the flow's own output: %v", err)
	}
	if err := guardPair(full, j, false, &rep, want.final+"\n"); err == nil {
		t.Error("replay guard accepted a different final LLVM text")
	}
	wrong := rep
	wrong.LatencyCycles++
	if err := guardPair(full, j, false, &wrong, want.final); err == nil {
		t.Error("replay guard accepted a different report")
	}

	refs := newRefOutputs([]*polybench.Kernel{j.Kernel}, []polybench.Size{j.Size})
	it := checkItem{key: j.key(), lm: lm, kernel: j.Kernel, size: j.Size}
	if err := checkModule(it, refs[j.Kernel.Name]); err != nil {
		t.Fatalf("output checker rejected a correct module: %v", err)
	}
	for ai, w := range refs[j.Kernel.Name] {
		bad := make([][]float32, len(refs[j.Kernel.Name]))
		copy(bad, refs[j.Kernel.Name])
		bad[ai] = append([]float32(nil), w...)
		bad[ai][len(w)-1] = w[len(w)-1]*1.001 + 1
		if err := checkModule(it, bad); err == nil {
			t.Errorf("output checker accepted a wrong value in argument %d", ai)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer  []layerMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec := readSpec(t)
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics()")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program has %d workloads", names, len(workloads))
	}
}

// TestSmoke runs every workload briefly in both modes: outputs must pass
// the checker and every metric BENCHMARK.json names must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := workloads[name](testConfig(t, name, 11, time.Second, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v)", m.Name, got, ok)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("reported %d end-to-end metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}

			res, err = workloads[name](testConfig(t, name, 11, 1500*time.Millisecond, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
			}
			checks := res.Metrics["oracle.checks"].Value
			if (name == "verified-pairs") != (checks > 0) {
				t.Errorf("oracle.checks = %v on %s", checks, name)
			}
			nonzero := []string{"c-frontend.c-frontend.ms", "synthesis.synthesis.ms", "translate.translate.ms", "job.self_ms"}
			if name == "compile-pairs" {
				nonzero = append(nonzero, "serve.cache.ratio", "serve.store.ratio", "serve.computed.ratio",
					"serve.cache.ms_p50", "castore.disk_hits", "incr.unit_hit_ratio")
			}
			for _, m := range nonzero {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("traced run left %s at zero", m)
				}
			}
		})
	}
}

// TestQoRRepeats checks that the pairs workloads report the same design
// quality for the same seed.
func TestQoRRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs compile-pairs twice")
	}
	run := func() map[string]metric {
		res, err := runPairs(testConfig(t, "compile-pairs", 5, 200*time.Millisecond, false), false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run(), run()
	for _, name := range []string{"qor_latency_cycles_geomean", "qor_area_lut_geomean", "qor_latency_ratio_geomean"} {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v for the same seed", name, a[name].Value, b[name].Value)
		}
	}
}
