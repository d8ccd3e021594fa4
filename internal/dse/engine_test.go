package dse

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// paretoFrontierQuadratic is the original O(n²) reference implementation
// (all-pairs domination, stable sort, dedup of equal objective pairs).
func paretoFrontierQuadratic(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Latency() != out[j].Latency() {
			return out[i].Latency() < out[j].Latency()
		}
		return out[i].Area < out[j].Area
	})
	var dedup []Point
	for _, p := range out {
		if len(dedup) > 0 {
			last := dedup[len(dedup)-1]
			if last.Latency() == p.Latency() && last.Area == p.Area {
				continue
			}
		}
		dedup = append(dedup, p)
	}
	return dedup
}

func frontierString(ps []Point) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, "%s %d %.0f\n", p.Label, p.Latency(), p.Area)
	}
	return sb.String()
}

func syntheticPoint(label string, lat int64, area float64) Point {
	return Point{Label: label, Report: &hls.Report{LatencyCycles: lat}, Area: area}
}

// TestParetoMatchesQuadratic checks the sort-then-sweep frontier against
// the all-pairs reference, on the real explored space and on synthetic
// sets with ties and duplicates.
func TestParetoMatchesQuadratic(t *testing.T) {
	res := explore(t, "gemm")
	if got, want := frontierString(paretoFrontier(res.Points)),
		frontierString(paretoFrontierQuadratic(res.Points)); got != want {
		t.Errorf("explored space: frontiers diverge\nsweep:\n%s\nquadratic:\n%s", got, want)
	}

	synthetic := []Point{
		syntheticPoint("a", 100, 50),
		syntheticPoint("b", 100, 40), // dominates a (same latency, less area)
		syntheticPoint("c", 90, 60),
		syntheticPoint("d", 90, 60), // duplicate objectives: keep first
		syntheticPoint("e", 120, 10),
		syntheticPoint("f", 80, 200),
		syntheticPoint("g", 85, 55),  // dominated by c? no: less area... lat 85<90, area 55<60 dominates c
		syntheticPoint("h", 200, 10), // dominated by e
		syntheticPoint("i", 80, 300), // dominated by f
	}
	if got, want := frontierString(paretoFrontier(synthetic)),
		frontierString(paretoFrontierQuadratic(synthetic)); got != want {
		t.Errorf("synthetic: frontiers diverge\nsweep:\n%s\nquadratic:\n%s", got, want)
	}
}

// exploreSerialReference reproduces the pre-engine serial Explore loop.
func exploreSerialReference(t *testing.T, build func() *mlir.Module, top string, tgt hls.Target) *Result {
	t.Helper()
	res := &Result{}
	for _, cfg := range Space() {
		fr, err := flow.AdaptorFlow(build(), top, cfg.D, tgt)
		if err != nil {
			t.Fatalf("serial reference: %s: %v", cfg.Label, err)
		}
		res.Points = append(res.Points, Point{
			Label:  cfg.Label,
			D:      cfg.D,
			Report: fr.Report,
			Area:   areaOf(fr.Report),
		})
	}
	res.Pareto = paretoFrontier(res.Points)
	return res
}

// TestExploreParallelMatchesSerial is the golden diff: the engine-backed
// sweep must be byte-identical to the serial loop — same points, same
// order, same frontier rendering — at any worker count, cached or not.
func TestExploreParallelMatchesSerial(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *mlir.Module { return k.Build(s) }
	tgt := hls.DefaultTarget()

	want := exploreSerialReference(t, build, k.Name, tgt)
	check := func(name string, got *Result) {
		t.Helper()
		if len(got.Errors) != 0 {
			t.Fatalf("%s: unexpected errors: %v", name, got.Errors)
		}
		if g, w := frontierString(got.Points), frontierString(want.Points); g != w {
			t.Errorf("%s: points diverge from serial\ngot:\n%s\nwant:\n%s", name, g, w)
		}
		if g, w := got.String(), want.String(); g != w {
			t.Errorf("%s: frontier table diverges from serial\ngot:\n%s\nwant:\n%s", name, g, w)
		}
	}

	for _, w := range []int{1, 4} {
		got, err := ExploreWith(engine.Input{Build: build, Top: k.Name}, tgt, Options{Engine: engine.New(engine.Options{Workers: w})})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("workers=%d", w), got)
	}

	// Cached: second run must be served from the cache and stay identical.
	eng := engine.New(engine.Options{Workers: 4, Cache: true})
	for run := 0; run < 2; run++ {
		got, err := ExploreWith(engine.Input{Build: build, Top: k.Name, Scope: "MINI"}, tgt, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("cached run %d", run), got)
	}
	if st := eng.Stats(); st.CacheHits == 0 {
		t.Errorf("second cached exploration should hit: %+v", st)
	}
}

// TestExplorePartialFailure: a failing configuration is recorded with its
// label and the sweep continues over the rest of the space.
func TestExplorePartialFailure(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	// With a single worker, jobs run in space order; failing the third
	// build call breaks exactly Space()[2].
	calls := 0
	build := func() *mlir.Module {
		calls++
		if calls == 3 {
			return nil // engine rejects a nil module with a per-job error
		}
		return k.Build(s)
	}
	res, err := ExploreWith(engine.Input{Build: build, Top: k.Name}, hls.DefaultTarget(), Options{Engine: engine.New(engine.Options{Workers: 1})})
	if err != nil {
		t.Fatalf("partial failure must not abort the sweep: %v", err)
	}
	space := Space()
	if len(res.Errors) != 1 {
		t.Fatalf("want 1 point error, got %v", res.Errors)
	}
	if res.Errors[0].Label != space[2].Label {
		t.Errorf("failing label = %q, want %q", res.Errors[0].Label, space[2].Label)
	}
	if len(res.Points) != len(space)-1 {
		t.Errorf("want %d surviving points, got %d", len(space)-1, len(res.Points))
	}
	if len(res.Pareto) == 0 {
		t.Error("partial results should still yield a frontier")
	}
}

// TestExploreAllFail: when nothing evaluates, Explore reports the first
// failure instead of returning an empty result.
func TestExploreAllFail(t *testing.T) {
	build := func() *mlir.Module { return nil }
	_, err := Explore(engine.Input{Build: build, Top: "nope"}, hls.DefaultTarget())
	if err == nil || !strings.Contains(err.Error(), "no configuration evaluated") {
		t.Errorf("want total-failure error, got %v", err)
	}
}
