package oracle_test

import (
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/oracle"
	"repro/internal/polybench"
)

// TestWarmPassCompilesNothing runs the verified mix — every kernel at
// MINI under every dse.Space() configuration and both flows, 612 jobs
// with the oracle on — twice in one process, one job at a time. The first
// pass, on a cold table, compiles exactly the programs it executes: the
// 18 references and the 296 checked programs no earlier job passed. The
// second compiles none: every New finds its reference by the pristine
// module's key, and every check finds its verdict by key.
func TestWarmPassCompilesNothing(t *testing.T) {
	type job struct {
		k *polybench.Kernel
		s polybench.Size
		d flow.Directives
	}
	var jobs []job
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range dse.Space() {
			jobs = append(jobs, job{k, s, c.D})
		}
	}
	opts := flow.Options{VerifySemantics: true}
	pass := func() int64 {
		before := oracle.Compiles()
		for _, j := range jobs {
			for _, run := range []func(*mlir.Module, string, flow.Directives, hls.Target, flow.Options) (*flow.Result, error){
				flow.AdaptorFlowWith, flow.CxxFlowWith,
			} {
				if _, err := run(j.k.Build(j.s), j.k.Name, j.d, hls.DefaultTarget(), opts); err != nil {
					t.Fatalf("%s: %v", j.k.Name, err)
				}
			}
		}
		return oracle.Compiles() - before
	}
	oracle.ResetShared()
	if got := pass(); got != 314 {
		t.Errorf("a cold pass over %d jobs compiled %d programs, want 314", 2*len(jobs), got)
	}
	if got := pass(); got != 0 {
		t.Errorf("a warm pass over %d jobs compiled %d programs, want none", 2*len(jobs), got)
	}
}
