package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// pairJob is one compile of one kernel under one directive configuration
// through one flow.
type pairJob struct {
	Kernel *polybench.Kernel
	Size   polybench.Size
	Config dse.Config
	Kind   engine.Kind
}

// key identifies the job's output: equal keys must give equal outputs.
func (j pairJob) key() string {
	return j.Kernel.Name + "/" + j.Config.Label + "/" + string(j.Kind)
}

// engineJob is the job as the engine takes it.
func (j pairJob) engineJob(verify bool) engine.Job {
	k, sz := j.Kernel, j.Size
	return engine.Job{
		Label:           j.key(),
		Kind:            j.Kind,
		Build:           func() *mlir.Module { return k.Build(sz) },
		Top:             k.Name,
		Directives:      j.Config.D,
		Target:          hls.DefaultTarget(),
		CacheScope:      sz.Name,
		VerifySemantics: verify,
	}
}

// pairGen generates the job stream of the pairs workloads: a sequence of
// rounds, each compiling every kernel once under both flows, in a seeded
// order. Kernel k in round r gets configuration perm[(slot[k]+r) mod n],
// a Latin design over dse.Space(): every round spreads the kernels over
// all n configurations, and rounds 0..n-1 give every kernel every
// configuration exactly once. So each round costs about the same whatever
// the seed, and the first n rounds cover the whole design space.
type pairGen struct {
	seed    uint64
	stream  uint64
	kernels []*polybench.Kernel
	sizes   []polybench.Size
	space   []dse.Config
	perm    []int // seeded permutation of configuration indices
	slot    []int // seeded position of each kernel in the design
}

// newPairGen builds the generator for one workload, seed and PolyBench
// size preset; the workload name salts the stream so workloads sharing a
// seed draw different inputs.
func newPairGen(seed uint64, workload, size string) (*pairGen, error) {
	h := fnv.New64a()
	h.Write([]byte(workload))
	g := &pairGen{seed: seed, stream: h.Sum64(), kernels: polybench.All(), space: dse.Space()}
	for _, k := range g.kernels {
		sz, err := k.SizeOf(size)
		if err != nil {
			return nil, err
		}
		g.sizes = append(g.sizes, sz)
	}
	if len(g.kernels) == 0 || len(g.space) == 0 {
		return nil, fmt.Errorf("empty kernel suite or design space")
	}
	rng := rand.New(rand.NewPCG(seed, g.stream))
	g.perm = rng.Perm(len(g.space))
	g.slot = rng.Perm(len(g.kernels))
	return g, nil
}

// rounds is the number of rounds that cover the whole design space.
func (g *pairGen) rounds() int { return len(g.space) }

// round returns round r's jobs in their seeded order.
func (g *pairGen) round(r int) []pairJob {
	jobs := make([]pairJob, 0, 2*len(g.kernels))
	for i, k := range g.kernels {
		cfg := g.space[g.perm[(g.slot[i]+r)%len(g.space)]]
		for _, kind := range []engine.Kind{engine.KindAdaptor, engine.KindCxx} {
			jobs = append(jobs, pairJob{Kernel: k, Size: g.sizes[i], Config: cfg, Kind: kind})
		}
	}
	rng := rand.New(rand.NewPCG(g.seed^uint64(r+1)*0x9e3779b97f4a7c15, g.stream))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}
