package dse

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

func explore(t *testing.T, kernel string) *Result {
	t.Helper()
	k := polybench.Get(kernel)
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(engine.Input{Build: func() *mlir.Module { return k.Build(s) }, Top: k.Name}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExploreGemm(t *testing.T) {
	res := explore(t, "gemm")
	if len(res.Points) != len(Space()) {
		t.Fatalf("want %d points, got %d", len(Space()), len(res.Points))
	}
	if len(res.Pareto) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	if len(res.Pareto) > len(res.Points) {
		t.Fatal("frontier larger than space")
	}
	// The frontier must include something faster than base.
	var base Point
	for _, p := range res.Points {
		if p.Label == "base" {
			base = p
		}
	}
	best := res.Pareto[0]
	if best.Latency() >= base.Latency() {
		t.Errorf("DSE found nothing faster than base: best=%d base=%d",
			best.Latency(), base.Latency())
	}
}

func TestParetoProperties(t *testing.T) {
	for _, kernel := range []string{"gemm", "jacobi2d"} {
		res := explore(t, kernel)
		// 1. No frontier point dominates another.
		for i, a := range res.Pareto {
			for j, b := range res.Pareto {
				if i != j && dominates(a, b) {
					t.Errorf("%s: frontier point %s dominates frontier point %s",
						kernel, a.Label, b.Label)
				}
			}
		}
		// 2. Every non-frontier point is dominated by (or duplicates) some
		// frontier point.
		onFrontier := func(p Point) bool {
			for _, q := range res.Pareto {
				if q.Latency() == p.Latency() && q.Area == p.Area {
					return true
				}
			}
			return false
		}
		for _, p := range res.Points {
			if onFrontier(p) {
				continue
			}
			covered := false
			for _, q := range res.Pareto {
				if dominates(q, p) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s: point %s neither on frontier nor dominated", kernel, p.Label)
			}
		}
		// 3. Frontier sorted ascending by latency, descending-ish by area.
		for i := 1; i < len(res.Pareto); i++ {
			if res.Pareto[i].Latency() < res.Pareto[i-1].Latency() {
				t.Errorf("%s: frontier not sorted by latency", kernel)
			}
			if res.Pareto[i].Area >= res.Pareto[i-1].Area {
				t.Errorf("%s: along the frontier area must strictly decrease as latency grows", kernel)
			}
		}
	}
}

func TestSpaceLabelsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Space() {
		if seen[c.Label] {
			t.Errorf("duplicate label %q", c.Label)
		}
		seen[c.Label] = true
	}
	if len(seen) < 10 {
		t.Errorf("space too small: %d configs", len(seen))
	}
}

func TestResultString(t *testing.T) {
	res := explore(t, "atax")
	s := res.String()
	if len(s) == 0 || s[0] != 'c' {
		t.Errorf("render broken:\n%s", s)
	}
}
