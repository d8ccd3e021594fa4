package hls_test

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir/passes"
	"repro/internal/polybench"
	"repro/internal/raceflag"
)

// bytesOf returns the bytes one call of f allocates.
func bytesOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSynthesizeScratchBytes checks that a synthesis with its pool warm
// allocates at least the per-instruction tables fewer bytes than one
// right after two collections have emptied every pool, on the pipelined
// adaptor flow's final gemm module at SMALL.
func TestSynthesizeScratchBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	k := polybench.Get("gemm")
	s, err := k.SizeOf("SMALL")
	if err != nil {
		t.Fatal(err)
	}
	tgt := hls.DefaultTarget()
	res, err := flow.AdaptorFlow(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	n, nargs := 0, 0
	for _, b := range res.LLVM.FindFunc(k.Name).Blocks {
		n += len(b.Instrs)
		for _, in := range b.Instrs {
			nargs += len(in.Args)
		}
	}
	synth := func() {
		if _, err := hls.Synthesize(res.LLVM, k.Name, tgt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	cold := bytesOf(synth)
	warm := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		warm = min(warm, bytesOf(synth))
	}
	tables := uint64(hls.PooledTableBytes(n, nargs))
	t.Logf("%d instructions: %d bytes cold, %d warm, tables %d", n, cold, warm, tables)
	if cold < warm+tables {
		t.Errorf("a warm synthesis saves %d bytes, want at least the %d bytes of its tables", cold-min(cold, warm), tables)
	}
}

// recycleCase is one flow run the recycling tests repeat: two kernels with
// different directive sets, each through both flows.
type recycleCase struct {
	kernel, kind string
	d            flow.Directives
}

var recycleCases = []recycleCase{
	{"gemm", "adaptor", flow.Directives{Pipeline: true, II: 1, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2}}},
	{"gemm", "cxx", flow.Directives{Pipeline: true, II: 1, Flatten: true,
		Partition: &passes.PartitionSpec{Kind: "cyclic", Factor: 2}}},
	{"atax", "adaptor", flow.Directives{Unroll: 2}},
	{"atax", "cxx", flow.Directives{Unroll: 2}},
}

// runCase runs c at MINI and returns its result with everything it
// prints: the final LLVM module, the C source and the report as text and
// JSON.
func runCase(t *testing.T, c recycleCase) (*flow.Result, string) {
	k := polybench.Get(c.kernel)
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Error(err)
		return nil, ""
	}
	run := flow.AdaptorFlow
	if c.kind == "cxx" {
		run = flow.CxxFlow
	}
	res, err := run(k.Build(s), k.Name, c.d, hls.DefaultTarget())
	if err != nil {
		t.Errorf("%s %s: %v", c.kernel, c.kind, err)
		return nil, ""
	}
	return res, printResult(res)
}

func printResult(res *flow.Result) string {
	rep, _ := json.Marshal(res.Report)
	return fmt.Sprintf("%s\n%s\n%s\n%s", res.LLVM.Print(), res.CSource, res.Report, rep)
}

// recycleReferences runs every case with every pool emptied first, as if
// its kernel came first in the process.
func recycleReferences(t *testing.T) []string {
	refs := make([]string, len(recycleCases))
	for i, c := range recycleCases {
		runtime.GC()
		runtime.GC()
		_, refs[i] = runCase(t, c)
	}
	return refs
}

// TestScratchRecyclingAlternatingKernels runs the cases in alternation, so
// every pooled table is handed from one kernel, flow and directive set to
// another. Each run must print what its kernel printed when it came
// first, and a result returned earlier must print the same after the
// later runs: nothing a flow returns may point into recycled scratch.
func TestScratchRecyclingAlternatingKernels(t *testing.T) {
	refs := recycleReferences(t)
	var kept []*flow.Result
	for round := 0; round < 3; round++ {
		for i, c := range recycleCases {
			res, got := runCase(t, c)
			if got != refs[i] {
				t.Fatalf("round %d: %s %s differs from its first run", round, c.kernel, c.kind)
			}
			if round == 0 {
				kept = append(kept, res)
			}
		}
	}
	for i, res := range kept {
		if got := printResult(res); got != refs[i] {
			t.Errorf("%s %s: an earlier result prints differently after later runs",
				recycleCases[i].kernel, recycleCases[i].kind)
		}
	}
}

// TestScratchRecyclingConcurrent runs the alternation from four goroutines
// at once, each starting at a different case, so the race detector sees
// concurrent takes and returns of every pool.
func TestScratchRecyclingConcurrent(t *testing.T) {
	refs := recycleReferences(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2*len(recycleCases); r++ {
				i := (g + r) % len(recycleCases)
				if _, got := runCase(t, recycleCases[i]); got != refs[i] {
					t.Errorf("goroutine %d: %s %s differs from its first run",
						g, recycleCases[i].kernel, recycleCases[i].kind)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
