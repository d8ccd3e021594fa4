package oracle_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/oracle"
	"repro/internal/polybench"
)

// checkMix is the verified-pairs module mix at MINI: every kernel's
// pristine module and its final module under every dse.Space()
// configuration and both flows.
var checkMix struct {
	once     sync.Once
	pristine []*mlir.Module // per final module, shared by a kernel's modules
	final    []*llvm.Module
	tops     []string
	err      error
}

func loadCheckMix() error {
	checkMix.once.Do(func() {
		for _, k := range polybench.All() {
			s, err := k.SizeOf("MINI")
			if err != nil {
				checkMix.err = err
				return
			}
			pristine := k.Build(s)
			for _, c := range dse.Space() {
				for _, run := range []func(*mlir.Module, string, flow.Directives, hls.Target) (*flow.Result, error){
					flow.AdaptorFlow, flow.CxxFlow,
				} {
					res, err := run(k.Build(s), k.Name, c.D, hls.DefaultTarget())
					if err != nil {
						checkMix.err = fmt.Errorf("%s %s: %w", k.Name, c.Label, err)
						return
					}
					checkMix.pristine = append(checkMix.pristine, pristine)
					checkMix.final = append(checkMix.final, res.LLVM)
					checkMix.tops = append(checkMix.tops, k.Name)
				}
			}
		}
	})
	return checkMix.err
}

// BenchmarkOracleCheck measures the oracle's part of a job of the mix,
// cycling through all of them: New, an MLIR check of the pristine module,
// then the final module checked twice. ns/op, allocs/op and compiles/job
// are per-job averages. "cold" empties the shared reference table before
// every job, so each job runs its reference and executes its final module
// once, as the first job on a kernel in a process does. "warm" keeps the
// table, as a long process does: after the first cycle New is a key walk
// and a lookup, every check returns on a recorded verdict, and nothing is
// compiled.
func BenchmarkOracleCheck(b *testing.B) {
	if err := loadCheckMix(); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(c.name, func(b *testing.B) {
			oracle.ResetShared()
			if !c.cold {
				// One cycle records every reference and verdict.
				for j := range checkMix.final {
					if err := oneJob(j); err != nil {
						b.Fatal(err)
					}
				}
			}
			compiled := oracle.Compiles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold {
					oracle.ResetShared()
				}
				if err := oneJob(i % len(checkMix.final)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(oracle.Compiles()-compiled)/float64(b.N), "compiles/job")
		})
	}
}

// oneJob is the oracle's part of job j of the mix.
func oneJob(j int) error {
	h, err := oracle.New(checkMix.pristine[j], checkMix.tops[j])
	if err != nil {
		return err
	}
	if err := h.CheckMLIR(checkMix.pristine[j]); err != nil {
		return err
	}
	for range 2 {
		if err := h.CheckLLVM(checkMix.final[j]); err != nil {
			return err
		}
	}
	return nil
}
