package dse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/llvm"
	"repro/internal/polybench"
)

func exploreOpts(t *testing.T, kernel string, opts Options) *Result {
	t.Helper()
	in, err := engine.RemoteSpec{Kernel: kernel, Size: "MINI"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExploreWith(in, hls.DefaultTarget(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// paretoSig renders a frontier as comparable label/latency/area rows.
func paretoSig(res *Result) string {
	s := ""
	for _, p := range res.Pareto {
		s += fmt.Sprintf("%s %d %.0f\n", p.Label, p.Latency(), p.Area)
	}
	return s
}

// TestPrecheckPrunesInfeasibleII: conv2d accumulates into a loop-invariant
// output address in its innermost loop, so the load→fmul→fadd→store
// recurrence puts the dependence-implied RecMII well above 2: every
// requested II in the sweep is below the floor and only the smallest
// request per directive group can produce a distinct schedule. The
// pre-check must prune the II=2 twins, evaluate fewer points, and report
// the identical Pareto frontier (same labels, latencies, and areas) as the
// full sweep.
func TestPrecheckPrunesInfeasibleII(t *testing.T) {
	full := exploreOpts(t, "conv2d", Options{})
	pruned := exploreOpts(t, "conv2d", Options{Precheck: true})

	if len(pruned.Pruned) == 0 {
		t.Fatal("pre-check pruned nothing on conv2d, which has a known recurrence")
	}
	if len(pruned.Points)+len(pruned.Pruned) != len(full.Points) {
		t.Errorf("points(%d) + pruned(%d) != full space(%d)",
			len(pruned.Points), len(pruned.Pruned), len(full.Points))
	}
	for _, pp := range pruned.Pruned {
		if pp.Label[:len("pipeII2")] != "pipeII2" {
			t.Errorf("unexpected pruned point %q (only II=2 twins should go)", pp.Label)
		}
	}
	if got, want := paretoSig(pruned), paretoSig(full); got != want {
		t.Errorf("pre-check changed the Pareto frontier:\n--- full\n%s--- precheck\n%s", want, got)
	}
	// Every pruned label's full-sweep result must equal its kept
	// representative's — the justification for not evaluating it.
	byLabel := map[string]Point{}
	for _, p := range full.Points {
		byLabel[p.Label] = p
	}
	for _, pp := range pruned.Pruned {
		twin := byLabel[pp.Label]
		kept := byLabel["pipeII1"+pp.Label[len("pipeII2"):]]
		if twin.Report == nil || kept.Report == nil {
			t.Fatalf("missing full-sweep result for %q or its kept twin", pp.Label)
		}
		if twin.Latency() != kept.Latency() || twin.Area != kept.Area {
			t.Errorf("pruned %q (lat=%d area=%.0f) differs from kept twin (lat=%d area=%.0f)",
				pp.Label, twin.Latency(), twin.Area, kept.Latency(), kept.Area)
		}
	}
}

// TestPrecheckNoRecurrenceKeepsSpace: gemm keeps its accumulator in a
// register across the innermost loop (no loop-invariant memory address is
// both loaded and stored per iteration), so its RecMII floor is 1 and the
// pre-check must keep the whole space.
func TestPrecheckNoRecurrenceKeepsSpace(t *testing.T) {
	res := exploreOpts(t, "gemm", Options{Precheck: true})
	if len(res.Pruned) != 0 {
		t.Errorf("gemm has no memory recurrence; pruned %d point(s): %+v", len(res.Pruned), res.Pruned)
	}
	if len(res.Points) != len(Space()) {
		t.Errorf("want full space %d, got %d", len(Space()), len(res.Points))
	}
}

// TestPrecheckResourceFloorPrunes: jacobi1d issues three loads of the same
// array per stencil iteration, so even with no recurrence (its RecMII floor
// is 1, and the recurrence-only rule of the earlier pre-check pruned
// nothing) the default dual-ported memory bounds the II at ceil(3/2)=2 for
// the unpartitioned groups. The resource-aware pre-check must prune those
// II=2 twins and still report the exact Pareto frontier of the full sweep.
func TestPrecheckResourceFloorPrunes(t *testing.T) {
	k := polybench.Get("jacobi1d")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	_, bounds := preparedBounds(t, k, s, hls.DefaultTarget())
	recFloor, ok := minRecMII(bounds)
	if !ok || recFloor != 1 {
		t.Fatalf("premise broken: jacobi1d recurrence floor = %d (ok=%v), want 1 "+
			"(the recurrence-only rule must have pruned nothing)", recFloor, ok)
	}

	full := exploreOpts(t, "jacobi1d", Options{})
	pruned := exploreOpts(t, "jacobi1d", Options{Precheck: true})
	if len(pruned.Pruned) == 0 {
		t.Fatal("resource-aware pre-check pruned nothing on jacobi1d")
	}
	if len(pruned.Points)+len(pruned.Pruned) != len(full.Points) {
		t.Errorf("points(%d) + pruned(%d) != full space(%d)",
			len(pruned.Points), len(pruned.Pruned), len(full.Points))
	}
	for _, pp := range pruned.Pruned {
		if !strings.Contains(pp.Reason, "ResMII") {
			t.Errorf("pruned %q for a non-resource reason: %s", pp.Label, pp.Reason)
		}
		if strings.Contains(pp.Label, "part") {
			t.Errorf("partitioned group %q should not be port-bound: extra ports lower ResMII below the request", pp.Label)
		}
	}
	if got, want := paretoSig(pruned), paretoSig(full); got != want {
		t.Errorf("pre-check changed the Pareto frontier:\n--- full\n%s--- precheck\n%s", want, got)
	}
}

// precheckInput is a sweep input the pre-check's soundness is checked on.
type precheckInput struct {
	name string
	spec engine.RemoteSpec
}

// precheckInputs are the 18 kernels at MINI and the kgen corpus.
func precheckInputs() []precheckInput {
	var ins []precheckInput
	for _, k := range polybench.All() {
		ins = append(ins, precheckInput{k.Name, engine.RemoteSpec{Kernel: k.Name, Size: "MINI"}})
	}
	for _, k := range kgen.CorpusKernels() {
		ins = append(ins, precheckInput{k.Name, engine.RemoteSpec{MLIR: k.MLIR, Top: k.Name}})
	}
	return ins
}

// precheckTargets are the targets the pre-check's bounds must match the
// scheduler under: the default, the inferred cost model (operators priced
// at analyzed widths), a 5 ns clock (deeper operator latencies, so other
// recurrences) and single-ported memories (other port floors).
func precheckTargets() []struct {
	name string
	tgt  hls.Target
} {
	inferred := hls.DefaultTarget()
	inferred.CostModel = hls.CostInferred
	fast := hls.DefaultTarget()
	fast.ClockNs = 5
	onePort := hls.DefaultTarget()
	onePort.MemPorts = 1
	return []struct {
		name string
		tgt  hls.Target
	}{{"default", hls.DefaultTarget()}, {"inferred", inferred}, {"5ns", fast}, {"1port", onePort}}
}

// TestPrecheckFrontierAllKernels sweeps every kernel and corpus kernel
// under each precheck target with and without the pre-check and asserts two
// invariants on each: the pruned points partition the space (nothing
// silently dropped) and the Pareto frontier is identical to the exhaustive
// sweep's. This is the global soundness statement behind the fig-8
// reproduction: pruning only ever removes points whose schedule a kept
// representative already realises, which holds only where the pre-check's
// bounds equal the scheduler's.
func TestPrecheckFrontierAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every kernel twice per target")
	}
	for _, in := range precheckInputs() {
		in := in
		t.Run(in.name, func(t *testing.T) {
			input, err := in.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range precheckTargets() {
				pt := pt
				t.Run(pt.name, func(t *testing.T) {
					full, err := ExploreWith(input, pt.tgt, Options{})
					if err != nil {
						t.Fatal(err)
					}
					pre, err := ExploreWith(input, pt.tgt, Options{Precheck: true})
					if err != nil {
						t.Fatal(err)
					}
					if len(pre.Points)+len(pre.Pruned) != len(full.Points) {
						t.Errorf("points(%d) + pruned(%d) != full space(%d)",
							len(pre.Points), len(pre.Pruned), len(full.Points))
					}
					if got, want := paretoSig(pre), paretoSig(full); got != want {
						t.Errorf("pre-check changed the Pareto frontier:\n--- full\n%s--- precheck\n%s", want, got)
					}
				})
			}
		})
	}
}

// preparedBounds returns kernel k's top function on the module the
// pre-check prepares, and the bounds of its pipelined loops.
func preparedBounds(t *testing.T, k *polybench.Kernel, s polybench.Size, tgt hls.Target) (*llvm.Function, []hls.LoopBound) {
	t.Helper()
	lm, err := flow.PrepareLLVM(k.Build(s), k.Name, flow.Directives{Pipeline: true, II: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := lm.FindFunc(k.Name)
	var out []hls.LoopBound
	for _, lb := range hls.LoopBounds(hls.Analyze(f), tgt) {
		if lb.Pipelined {
			out = append(out, lb)
		}
	}
	return f, out
}

// minRecMII is the smallest RecMII over bounds; ok=false when there is no
// pipelined loop.
func minRecMII(bounds []hls.LoopBound) (floor int, ok bool) {
	for _, lb := range bounds {
		if floor == 0 || lb.RecMII < floor {
			floor = lb.RecMII
		}
	}
	return floor, floor > 0
}

// TestDistanceFloorNeverLooser: on every kernel's prepared module, the
// distance-aware recurrence floor that hls.LoopBounds reports (the affine
// dependence engine powering the pre-check) must be at least the
// structural alias-filtered floor the pre-check used before: exact distances
// can only discover recurrences the same-address heuristic missed or agree
// with it (a structural distance-1 recurrence is a ZIV pair the engine pins
// at d=1), never relax one. A looser floor would let the pre-check keep
// points the scheduler then prices above the frontier's representative.
func TestDistanceFloorNeverLooser(t *testing.T) {
	tgt := hls.DefaultTarget()
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			f, floors := preparedBounds(t, k, s, tgt)
			if len(floors) == 0 {
				t.Fatalf("no pipelined loops found in %s", k.Name)
			}
			a := hls.Analyze(f)
			structural := map[string]int{}
			for _, l := range a.Loops.Loops {
				if !l.IsInnermost() {
					continue
				}
				var instrs []*llvm.Instr
				for _, b := range a.CFG.Order {
					if l.Contains(b) {
						instrs = append(instrs, b.Instrs...)
					}
				}
				structural[l.Header.Name] = tgt.RecMII(l, instrs, a.PointsTo().MayAlias)
			}
			for _, lf := range floors {
				old, found := structural[lf.Header.Name]
				if !found {
					t.Fatalf("loop %%%s missing from the structural recomputation", lf.Header.Name)
				}
				if lf.RecMII < old {
					t.Errorf("loop %%%s: distance-aware RecMII=%d is looser than structural RecMII=%d",
						lf.Header.Name, lf.RecMII, old)
				}
			}
		})
	}
}

// TestSeidel2dGainsExactDistance pins the precision win the affine engine
// delivers on the corpus: seidel2d's innermost loop reads A[i][j-1] — the
// value stored to A[i][j] one iteration earlier — a real distance-1
// recurrence the structural same-address model cannot see (the addresses are
// IV-dependent and textually different). The distance-aware floor must rise
// above the structural floor of 1 on that loop.
func TestSeidel2dGainsExactDistance(t *testing.T) {
	k := polybench.Get("seidel2d")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	_, bounds := preparedBounds(t, k, s, hls.DefaultTarget())
	floor, ok := minRecMII(bounds)
	if !ok {
		t.Fatal("no pipelined loop found in seidel2d")
	}
	if floor <= 1 {
		t.Errorf("seidel2d distance-aware recurrence floor = %d, want > 1 "+
			"(the A[i][j-1] flow dependence must constrain the II)", floor)
	}
}
