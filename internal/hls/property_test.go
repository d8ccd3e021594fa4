package hls

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mlir"
	"repro/internal/mlir/passes"
)

// randomKernel builds a random but well-formed 2-level loop nest over two
// arrays with a configurable body size.
func randomKernel(r *rand.Rand) *mlir.Module {
	n := int64(r.Intn(12) + 4)
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{n, n}, mlir.F32())
	_, args := m.AddFunc("rk", []*mlir.Type{ty, ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("rk")))
	b.AffineForConst(0, n, 1, func(b *mlir.Builder, i *mlir.Value) {
		b.AffineForConst(0, n, 1, func(b *mlir.Builder, j *mlir.Value) {
			v := b.AffineLoad(args[0], i, j)
			ops := r.Intn(5) + 1
			for k := 0; k < ops; k++ {
				switch r.Intn(4) {
				case 0:
					v = b.AddF(v, v)
				case 1:
					v = b.MulF(v, v)
				case 2:
					v = b.NegF(v)
				default:
					w := b.AffineLoad(args[1], i, j)
					v = b.AddF(v, w)
				}
			}
			b.AffineStore(v, args[1], i, j)
		})
	})
	b.Return()
	if err := passes.MarkTop("rk").Run(m); err != nil {
		panic(err)
	}
	return m
}

func synthRandom(t *testing.T, seed int64, ps ...passes.Pass) *Report {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := randomKernel(r)
	lm := adapted(t, m, ps...)
	rep, err := Synthesize(lm, "rk", DefaultTarget())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return rep
}

// Property: latency is at least the iteration count (every iteration costs
// at least one cycle) and every loop's latency is positive.
func TestPropertyLatencyLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rep := synthRandom(t, seed)
		if rep.LatencyCycles <= 0 {
			return false
		}
		for _, l := range rep.Loops {
			if l.Latency <= 0 || l.IterLatency <= 0 {
				return false
			}
			if l.Trip > 0 && l.Latency < l.Trip {
				return false // cannot finish faster than 1 cycle/iter
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: pipelining never increases latency, and II >= 1.
func TestPropertyPipeliningMonotone(t *testing.T) {
	f := func(seed int64) bool {
		base := synthRandom(t, seed)
		piped := synthRandom(t, seed, passes.PipelineInnermost(1))
		for _, l := range piped.Loops {
			if l.Pipelined && l.II < 1 {
				return false
			}
		}
		return piped.LatencyCycles <= base.LatencyCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a pipelined loop's latency formula holds: depth + (trip-1)*II.
func TestPropertyPipelineFormula(t *testing.T) {
	f := func(seed int64) bool {
		rep := synthRandom(t, seed, passes.PipelineInnermost(1))
		for _, l := range rep.Loops {
			if !l.Pipelined || l.Trip <= 0 {
				continue
			}
			if l.Latency != l.IterLatency+(l.Trip-1)*int64(l.II) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: widening the target II never lowers the achieved II below the
// target, and latency grows monotonically with the target II.
func TestPropertyIIRespectsTarget(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		var prev int64
		for _, ii := range []int{1, 2, 4} {
			rep := synthRandom(t, seed, passes.PipelineInnermost(ii))
			for _, l := range rep.Loops {
				if l.Pipelined && l.II < ii {
					t.Fatalf("seed %d: achieved II %d below target %d", seed, l.II, ii)
				}
			}
			if prev != 0 && rep.LatencyCycles < prev {
				t.Fatalf("seed %d: latency decreased when target II grew", seed)
			}
			prev = rep.LatencyCycles
		}
	}
}

// Property: resources are non-negative and BRAM grows (weakly) with the
// cyclic partition factor.
func TestPropertyPartitionResources(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		var prevBRAM int
		for i, factor := range []int{1, 2, 4} {
			rep := synthRandom(t, seed,
				passes.PipelineInnermost(1),
				passes.PartitionAllArgs(passes.PartitionSpec{Kind: "cyclic", Factor: factor, Dim: 0}))
			if rep.LUT < 0 || rep.FF < 0 || rep.DSP < 0 || rep.BRAM < 0 {
				t.Fatalf("seed %d: negative resources", seed)
			}
			if i > 0 && rep.BRAM < prevBRAM {
				t.Fatalf("seed %d: BRAM shrank with larger partition factor", seed)
			}
			prevBRAM = rep.BRAM
		}
	}
}

// Property: scheduling respects memory ordering — a store and subsequent
// load of the same array never land in the same cycle when ports are
// exhausted; indirectly: doubling the ports never slows a block down.
func TestPropertyMorePortsNeverSlower(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomKernel(r)
		lm := adapted(t, m)
		f := lm.FindFunc("rk")
		tgt := DefaultTarget()
		var widePorts = tgt
		widePorts.MemPorts = tgt.MemPorts * 4
		a := Analyze(f)
		narrowSynth, wideSynth := newSynth(a, tgt), newSynth(a, widePorts)
		for b := range f.Blocks {
			narrow, _ := narrowSynth.schedule([]int32{int32(b)}, 1)
			wide, _ := wideSynth.schedule([]int32{int32(b)}, 1)
			if wide > narrow {
				t.Fatalf("seed %d: wider ports slowed a block: %d -> %d",
					seed, narrow, wide)
			}
		}
	}
}

// Property: the critical path bound — a block's schedule is at least as long
// as its longest pure dependency chain of multi-cycle ops.
func TestPropertyCriticalPathBound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomKernel(r)
		lm := adapted(t, m)
		f := lm.FindFunc("rk")
		s := newSynth(Analyze(f), DefaultTarget())
		for b, blk := range f.Blocks {
			cycles, _ := s.schedule([]int32{int32(b)}, 1)
			// Longest chain in cycles via per-instruction latencies.
			chain := map[interface{}]int64{}
			var longest int64
			for _, in := range blk.Instrs {
				c := s.cost[s.instrNum(in)]
				best := int64(0)
				for _, a := range in.Args {
					if v, ok := chain[a]; ok && v > best {
						best = v
					}
				}
				mine := best + int64(c.Latency)
				chain[interface{}(in)] = mine
				if mine > longest {
					longest = mine
				}
			}
			if cycles < longest {
				t.Fatalf("seed %d: schedule (%d) shorter than critical path (%d)",
					seed, cycles, longest)
			}
		}
	}
}
