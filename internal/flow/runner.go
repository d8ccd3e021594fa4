package flow

import (
	"time"

	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/resilience"
)

// level names the IR a unit reads or leaves behind.
type level uint8

const (
	noIR    level = iota // the unit rewrites nothing (synthesis)
	mlirIR               // the MLIR module
	llvmIR               // the LLVM module
	cSource              // the emitted HLS C++ source
)

// check is the set of checks that follow a unit's body, run in the order
// the constants are declared.
type check uint8

const (
	// checkVerify runs the verifier on every run (the MLIR pass units).
	checkVerify check = 1 << iota
	// checkEach runs the verifier and the lint invariant subset under
	// Options.VerifyEach.
	checkEach
	// checkOracle applies Options.InjectMiscompile's corruption when it
	// names the unit, then the differential oracle check.
	checkOracle
)

// unit is one entry of a flow's unit list.
type unit struct {
	PipelineUnit
	// params are the unit's memo-key parameters: a pass's constructor
	// arguments, or the synthesis target.
	params string
	// in is the IR the unit reads; out the IR it leaves, noIR when it
	// rewrites nothing and its product is aux alone.
	in, out level
	checks  check
	run     func() error
	// aux, when set, is the product beyond IR that the unit's record
	// carries (the adaptor and synthesis reports).
	aux *auxCodec
	// leave, when set, ends the unit's stage after the unit ran or
	// replayed. It is not a pipeline unit: the Observer never sees it and
	// PipelineUnits does not list it.
	leave func() error
}

// runner holds one flow run: the IR state its units share and the
// per-run cursor and timings.
type runner struct {
	flow, top string
	opts      Options
	// memo is the incremental cursor; nil when the run does not memoize.
	memo  *memoRun
	start time.Time

	m       *mlir.Module
	lm      *llvm.Module
	src     string // emitted C source (cxx flow)
	adaptor *core.Report
	report  *hls.Report
	phases  Phases
}

func newRunner(flowName string, m *mlir.Module, top string, opts Options) *runner {
	return &runner{flow: flowName, top: top, opts: opts, m: m, phases: Phases{}, start: time.Now()}
}

// arm starts the run's memo cursor, and arms the semantic oracle under
// VerifySemantics or an InjectMiscompile. The reference execution is taken
// later, before the first unit that executes live.
func (r *runner) arm() {
	if r.opts.memoEnabled() {
		r.memo = newMemoRun(r.flow, r.top, r.opts, r.m)
	}
	if r.opts.sem == nil && (r.opts.VerifySemantics || r.opts.InjectMiscompile != "") {
		r.opts.sem = &semOracle{ctx: checkContext(r.opts)}
	}
}

// run executes the units in order and stops at the first failure.
func (r *runner) run(units []unit) error {
	for i := range units {
		u := &units[i]
		if err := r.unit(u); err != nil {
			return err
		}
		if u.leave != nil {
			if err := u.leave(); err != nil {
				return err
			}
		}
	}
	return nil
}

// unit applies every cross-cutting concern to one unit, in a fixed order:
// the context check at the boundary; then, inside one recovery boundary,
// the Observer snapshot, the FaultHook, the memo lookup (a replay skips
// everything after it), the oracle's reference capture, the catch-up of
// IR a replayed prefix left behind, the body and the unit's checks; last,
// the memo store, so only a unit that passed its checks leaves a record.
// Its time accumulates into the unit's stage.
func (r *runner) unit(u *unit) error {
	start := time.Now()
	err := resilience.Interrupted(r.opts.Ctx, u.Stage, u.Pass)
	if err == nil {
		err = resilience.Guard(u.Stage, u.Pass, func() error {
			if r.opts.Observer != nil {
				r.opts.Observer(u.Stage, u.Pass, r.print(u.in))
			}
			if r.opts.FaultHook != nil {
				if err := r.opts.FaultHook(r.flow, u.Stage, u.Pass); err != nil {
					return err
				}
			}
			var key string
			if r.memo != nil {
				k, replayed := r.lookup(u)
				if replayed {
					return nil
				}
				key = k
			}
			if err := r.reference(); err != nil {
				return err
			}
			if err := r.catchUp(u); err != nil {
				return err
			}
			if err := u.run(); err != nil {
				return err
			}
			if err := r.check(u); err != nil {
				return err
			}
			if r.memo != nil {
				r.record(u, key)
			}
			return nil
		})
	}
	r.phases[u.Stage] += time.Since(start)
	return err
}

// reference takes the oracle's reference execution before the first unit
// that executes live, inside its own boundary. Replayed units never touch
// r.m and catchUp has not yet refilled it, so it is still the module the
// run started from.
func (r *runner) reference() error {
	sem := r.opts.sem
	if sem == nil || sem.h != nil {
		return nil
	}
	return resilience.Guard("oracle", "reference", func() error { return sem.capture(r.m, r.top) })
}

// check runs the unit's checks on the IR it leaves, or on the IR it read
// when it rewrites nothing. A verifier or lint violation is a verify
// failure of the unit; oracle failures arrive typed.
func (r *runner) check(u *unit) error {
	at := u.out
	if at == noIR {
		at = u.in
	}
	each := u.checks&checkEach != 0 && r.opts.VerifyEach
	var err error
	if u.checks&checkVerify != 0 || each {
		err = r.verify(at)
	}
	if err == nil && each {
		err = r.invariants(at)
	}
	if err != nil {
		return resilience.NewFailure(u.Stage, u.Pass, resilience.KindVerify, err)
	}
	sem := r.opts.sem
	if u.checks&checkOracle == 0 || sem == nil {
		return nil
	}
	inject := u.named(r.opts.InjectMiscompile)
	if at == mlirIR {
		if inject {
			corruptMLIR(r.m)
		}
		return sem.afterMLIR(u.Stage, u.Pass, r.m)
	}
	if inject {
		corruptLLVM(r.lm)
	}
	return sem.afterLLVM(u.Stage, u.Pass, r.lm)
}

func (r *runner) verify(at level) error {
	if at == mlirIR {
		return r.m.Verify()
	}
	return r.lm.Verify()
}

func (r *runner) invariants(at level) error {
	if at == mlirIR {
		return lint.MLIRInvariants(r.m)
	}
	return lint.Invariants(r.lm)
}

// print renders the IR at level l: the Observer's snapshot and the memo
// cursor's bytes.
func (r *runner) print(l level) string {
	switch l {
	case mlirIR:
		return r.m.Print()
	case llvmIR:
		return r.lm.Print()
	case cSource:
		return r.src
	}
	return ""
}

// leaveLLVMOpt ends the adaptor flow's llvm-opt stage. The cleaned module
// is verified, or, after a replayed tail, materialized and verified, so a
// warm run cannot slip past a failure the cold run reports. Then every
// module leaving the pipeline must sit inside the old Vitis LLVM's
// accepted subset, or the adaptor has a bug.
func (r *runner) leaveLLVMOpt() error {
	start := time.Now()
	err := resilience.Guard("llvm-opt", "verify", func() error {
		if r.memo != nil && r.memo.stale {
			return r.memo.finalize(&r.lm)
		}
		if err := r.lm.Verify(); err != nil {
			return resilience.NewFailure("llvm-opt", "verify", resilience.KindVerify, err)
		}
		return nil
	})
	r.phases["llvm-opt"] += time.Since(start)
	if err != nil {
		return err
	}
	return resilience.Guard("conformance", "conformance", func() error { return conformanceGate(r.lm) })
}

// result assembles the flow's Result.
func (r *runner) result() *Result {
	res := &Result{Flow: r.flow, Report: r.report, Adaptor: r.adaptor, LLVM: r.lm, CSource: r.src,
		Phases: r.phases, Total: time.Since(r.start)}
	if r.memo != nil {
		res.UnitHits, res.UnitMisses = r.memo.hits, r.memo.misses
	}
	return res
}
