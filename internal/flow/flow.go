// Package flow wires the complete compilation pipelines the paper compares:
//
//   - AdaptorFlow (the paper's contribution): MLIR passes → affine→scf→cf
//     lowering → translation to LLVM IR → the HLS adaptor → LLVM-level
//     cleanup → HLS synthesis.
//   - CxxFlow (the baseline): MLIR passes → HLS C++ emission → C frontend
//     (Vitis Clang stand-in) → HLS synthesis.
//   - RawFlow: translation without the adaptor, to demonstrate the gate
//     failure the adaptor exists to fix.
//
// Each flow is an ordered list of units, one per pass, lowering,
// translation, adaptor, emission, frontend or synthesis step, named by a
// PipelineUnit. One runner executes every list and applies each
// cross-cutting concern once per unit, in a fixed order: the context check,
// panic isolation, the Observer and FaultHook, memoized replay, the unit's
// checks (verify-each, the semantic oracle) and phase timing. PipelineUnits
// is derived from the same lists.
package flow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cfront"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	lpasses "repro/internal/llvm/passes"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/passes"
	"repro/internal/resilience"
	"repro/internal/translate"
)

// Options tunes how a flow runs beyond the HLS directives.
type Options struct {
	// VerifyEach re-checks the IR invariants (verifier plus the lint
	// invariant subset) after every MLIR and LLVM pass and after the
	// translation, the adaptor and the C frontend. A violation fails the
	// flow naming the offending unit. Bisect sets it for its replay; the
	// -verify-each flag of mlir-opt drives passes.PassManager instead.
	VerifyEach bool

	// Ctx, when non-nil, is checked cooperatively at every pipeline-unit
	// boundary: once done, the flow stops at the next boundary with a
	// typed timeout/cancellation failure instead of running to completion
	// in a leaked goroutine.
	Ctx context.Context

	// FaultHook, when non-nil, is called inside each unit's recovery
	// boundary just before the unit body with (flow, stage, pass) — the
	// deterministic fault-injection point the resilience tests use. A
	// returned error fails the unit, typed like any error a unit returns
	// (a wrapped context.DeadlineExceeded is a transient timeout), and a
	// panicking hook is a panic failure of the unit it targeted.
	FaultHook func(flow, stage, pass string) error

	// Observer, when non-nil, receives the IR entering every pipeline unit
	// as (stage, pass, ir) — MLIR text through the MLIR stages, LLVM text
	// after translation, C source entering the C frontend. The bisection
	// replay records per-unit snapshots through it.
	Observer func(stage, pass, ir string)

	// Fallback enables graceful degradation for AdaptorFlowWith: when the
	// direct-IR path fails, the kernel is rebuilt through this function
	// and rerun through the C++ flow, and the result comes back with
	// Degraded set and the direct-path failure attached instead of an
	// error. Flows mutate their input, so Fallback must build a fresh
	// module (engine jobs reuse Job.Build).
	Fallback func() *mlir.Module

	// VerifySemantics runs the differential-execution oracle: a reference
	// execution of the kernel is captured from the run's own module just
	// before the first unit that executes live, and the evolving IR is
	// re-executed and compared against it after every pipeline unit
	// (integers bitwise, floats within a ULP tolerance). The first
	// divergence fails the flow with a typed KindMiscompile failure naming
	// the unit that introduced it — the -verify-semantics flag of the cmd
	// tools.
	VerifySemantics bool

	// InjectMiscompile, when set to "stage/pass", arms the oracle and
	// deterministically corrupts the IR immediately after the named unit
	// completes (first float add becomes a subtract), so the unit's own
	// oracle check — and only it — must catch the wrong answer. Recorded
	// in repro bundles so -replay re-arms the same corruption.
	InjectMiscompile string

	// IncrStore, when non-nil, memoizes the run per unit: every pipeline
	// unit is keyed by SHA-256 of the flow configuration, the unit's name
	// and parameters, and its exact input-IR bytes, and a hit replays the
	// stored output bytes instead of executing the unit — so a directive
	// change re-runs the flow only from the first affected unit, and a
	// repeated design point replays its whole prefix. An incr.DiskStore
	// warm-starts across processes; an engine shares one store across all
	// its jobs. Runs with an Observer, FaultHook, or InjectMiscompile
	// execute live regardless: those hooks observe or perturb live units.
	// RawFlow is never memoized (its product is the violation list, not
	// pipeline IR).
	IncrStore incr.Store

	// IncrSeed, when non-empty on a memoized run, identifies the input
	// module without printing it: the memo cursor starts from the seed's
	// digest instead of the module text, saving the pristine Print on
	// every warm run. The caller must guarantee the seed uniquely
	// determines the module bytes — the engine derives it from the job's
	// kernel and size, resting on the same build determinism its
	// whole-flow cache already assumes. Seeded and unseeded runs key
	// disjoint record chains.
	IncrSeed string

	// sem is the per-run oracle, armed by the flow entry points under
	// VerifySemantics or InjectMiscompile and shared across the run's
	// stages (including the degraded C++ rerun, whose kernel has the same
	// reference semantics).
	sem *semOracle
}

// Directives selects the HLS optimization configuration applied before the
// flows diverge.
type Directives struct {
	// Pipeline marks innermost loops for pipelining with the target II.
	Pipeline bool
	II       int
	// Unroll sets an innermost unroll factor (1 = off). The adaptor flow
	// materializes it at the MLIR level; the C++ flow carries it as a
	// pragma consumed by the backend — exactly the asymmetry between
	// ScaleHLS-style tools and Vitis.
	Unroll int
	// Partition applies an array partition to every memref argument.
	Partition *passes.PartitionSpec
	// Flatten marks perfect nest levels for loop flattening so the inner
	// pipeline keeps issuing across outer iterations.
	Flatten bool
	// Dataflow requests task-level parallelism across independent
	// top-level loops (#pragma HLS dataflow).
	Dataflow bool
}

// Canon returns d in the normal form the flows consume: II matters only
// when pipelining and floors at 1, and an unroll factor <= 1 is off (0).
// Directives with equal normal forms run the same units.
func (d Directives) Canon() Directives {
	switch {
	case !d.Pipeline:
		d.II = 0
	case d.II < 1:
		d.II = 1
	}
	if d.Unroll <= 1 {
		d.Unroll = 0
	}
	return d
}

// Key renders the normal form, the directives' part of a design point's
// cache key: equal keys mean equal normal forms.
func (d Directives) Key() string {
	c := d.Canon()
	var sb strings.Builder
	if c.Pipeline {
		fmt.Fprintf(&sb, "pipe=%d", c.II)
	} else {
		sb.WriteString("pipe=off")
	}
	if c.Unroll > 0 {
		fmt.Fprintf(&sb, "|unroll=%d", c.Unroll)
	} else {
		sb.WriteString("|unroll=off")
	}
	if p := c.Partition; p != nil {
		fmt.Fprintf(&sb, "|part=%s/%d/%d", p.Kind, p.Factor, p.Dim)
	} else {
		sb.WriteString("|part=none")
	}
	fmt.Fprintf(&sb, "|flat=%t|dataflow=%t", c.Flatten, c.Dataflow)
	return sb.String()
}

// Result is the outcome of one flow run.
type Result struct {
	Flow    string
	Report  *hls.Report
	Adaptor *core.Report // adaptor flow only
	LLVM    *llvm.Module
	CSource string // C++ flow only

	// Phases records per-phase wall time. Each Result owns its map;
	// cross-run aggregation must go through Phases.Merge.
	Phases Phases
	Total  time.Duration

	// Degraded marks a result produced by the C++ fallback path after the
	// direct-IR flow failed; Failure carries that direct-path failure.
	Degraded bool
	Failure  *resilience.PassFailure

	// UnitHits and UnitMisses count pipeline units replayed from the
	// incremental store vs executed live (both zero when the run has no
	// IncrStore or an observation hook suppresses memoization).
	UnitHits, UnitMisses int
}

// maxUnits is the length of the longest unit list, the adaptor flow's with
// every directive set. A list is built in one allocation of this capacity.
const maxUnits = 19

// mlirOpt appends the MLIR preparation both flows share: the directive
// passes, then canonicalize and CSE. The C++ flow hands unrolling to the
// backend as a pragma, so it omits affine-loop-unroll.
func (r *runner) mlirOpt(units []unit, d Directives, materializeUnroll bool) []unit {
	add := func(p passes.Pass) {
		units = append(units, unit{PipelineUnit: PipelineUnit{"mlir-opt", p.Name()}, params: passes.PassParams(p),
			in: mlirIR, out: mlirIR, checks: checkVerify | checkEach | checkOracle,
			run: func() error { return p.Run(r.m) }})
	}
	d = d.Canon()
	add(passes.MarkTop(r.top))
	if d.Pipeline {
		add(passes.PipelineInnermost(d.II))
	}
	if d.Unroll > 0 {
		add(passes.MarkUnroll(d.Unroll))
		if materializeUnroll {
			add(passes.LoopUnroll(0, true))
		}
	}
	if d.Partition != nil {
		add(passes.PartitionAllArgs(*d.Partition))
	}
	if d.Flatten {
		add(passes.MarkFlatten())
	}
	if d.Dataflow {
		add(passes.MarkDataflow(r.top))
	}
	add(passes.Canonicalize())
	add(passes.CSE())
	return units
}

// lowering appends the lowering from affine to scf to cf. Lowering is
// checked by the oracle alone.
func (r *runner) lowering(units []unit) []unit {
	return append(units,
		unit{PipelineUnit: PipelineUnit{"lowering", "affine-to-scf"}, in: mlirIR, out: mlirIR,
			checks: checkOracle, run: func() error { return lower.AffineToSCF(r.m) }},
		unit{PipelineUnit: PipelineUnit{"lowering", "scf-to-cf"}, in: mlirIR, out: mlirIR,
			checks: checkOracle, run: func() error { return lower.SCFToCF(r.m) }})
}

func (r *runner) translate() unit {
	return unit{PipelineUnit: PipelineUnit{"translate", "translate"}, in: mlirIR, out: llvmIR,
		checks: checkEach | checkOracle, run: func() (err error) {
			r.lm, err = translate.Translate(r.m, translate.Options{EmitLifetimeMarkers: true})
			return err
		}}
}

// adaptorFront appends the adaptor flow up to synthesis: MLIR preparation,
// lowering, translation, the adaptor and LLVM cleanup, ending with the
// llvm-opt stage's verify and the conformance gate.
func (r *runner) adaptorFront(units []unit, d Directives) []unit {
	units = r.lowering(r.mlirOpt(units, d, true))
	units = append(units, r.translate(), unit{PipelineUnit: PipelineUnit{"adaptor", "adaptor"},
		in: llvmIR, out: llvmIR, checks: checkEach | checkOracle, aux: jsonAux(&r.adaptor),
		run: func() (err error) {
			r.adaptor, err = core.Adapt(r.lm, core.Options{TopFunc: r.top})
			return err
		}})
	return r.llvmOpt(units)
}

// llvmOptPasses is the adaptor flow's LLVM cleanup, in order.
var llvmOptPasses = [...]lpasses.Pass{lpasses.PassSimplifyCFG, lpasses.PassConstFold,
	lpasses.PassStrengthReduce, lpasses.PassCSE, lpasses.PassDCE}

// llvmOpt appends the LLVM cleanup, each pass applied to every defined
// function. The stage ends with leaveLLVMOpt.
func (r *runner) llvmOpt(units []unit) []unit {
	for _, p := range llvmOptPasses {
		units = append(units, unit{PipelineUnit: PipelineUnit{"llvm-opt", p.Name}, in: llvmIR, out: llvmIR,
			checks: checkEach | checkOracle, run: func() error {
				for _, f := range r.lm.Funcs {
					if !f.IsDecl {
						p.Run(f)
					}
				}
				return nil
			}})
	}
	units[len(units)-1].leave = r.leaveLLVMOpt
	return units
}

// synthesis schedules the final module. It rewrites nothing: its product is
// the report, which its record carries, and the target is its key.
func (r *runner) synthesis(tgt hls.Target) unit {
	return unit{PipelineUnit: PipelineUnit{"synthesis", "synthesis"}, params: tgt.Canon(),
		in: llvmIR, out: noIR, checks: checkOracle, aux: jsonAux(&r.report),
		run: func() (err error) {
			r.report, err = hls.Synthesize(r.lm, r.top, tgt)
			return err
		}}
}

// units is the unit list of a flow kind ("adaptor", "cxx" or "raw").
func (r *runner) units(kind string, d Directives, tgt hls.Target) []unit {
	units := make([]unit, 0, maxUnits)
	switch kind {
	case "cxx":
		return append(r.mlirOpt(units, d, false),
			unit{PipelineUnit: PipelineUnit{"emit-hlscpp", "emit-hlscpp"}, in: mlirIR, out: cSource,
				run: func() (err error) {
					r.src, err = cgen.Emit(r.m)
					return err
				}},
			unit{PipelineUnit: PipelineUnit{"c-frontend", "c-frontend"}, in: cSource, out: llvmIR,
				checks: checkEach | checkOracle, run: func() (err error) {
					r.lm, err = cfront.Compile(r.src, cfront.Options{Top: r.top})
					return err
				}},
			r.synthesis(tgt))
	case "raw":
		// The raw flow's product is the gate's violation list: nothing in
		// it is oracle-checked, and the translation it hands the gate is
		// not verified first.
		units = append(r.lowering(r.mlirOpt(units, d, true)), r.translate())
		for i := range units {
			units[i].checks &^= checkOracle
		}
		units[len(units)-1].checks = 0
		return units
	}
	return append(r.adaptorFront(units, d), r.synthesis(tgt))
}

// PrepareLLVM runs the adaptor flow up to (but not including) synthesis and
// returns the cleaned LLVM module — the input the DSE feasibility pre-check
// lints without paying for a schedule.
func PrepareLLVM(m *mlir.Module, top string, d Directives) (*llvm.Module, error) {
	r := newRunner("adaptor", m, top, Options{})
	if err := r.run(r.adaptorFront(make([]unit, 0, maxUnits), d)); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return r.lm, nil
}

// AdaptorFlow runs the paper's direct-IR flow end to end.
func AdaptorFlow(m *mlir.Module, top string, d Directives, tgt hls.Target) (*Result, error) {
	return AdaptorFlowWith(m, top, d, tgt, Options{})
}

// AdaptorFlowWith is AdaptorFlow with explicit options.
func AdaptorFlowWith(m *mlir.Module, top string, d Directives, tgt hls.Target, opts Options) (*Result, error) {
	r := newRunner("adaptor", m, top, opts)
	r.arm()
	if err := r.run(r.units("adaptor", d, tgt)); err != nil {
		return degradeOrFail(r.opts, top, d, tgt, err)
	}
	return r.result(), nil
}

// degradeOrFail implements graceful degradation: with a Fallback builder
// and a deterministic direct-path failure, the kernel reruns through the
// C++ baseline flow and the result is tagged Degraded with the captured
// failure attached. Transient failures (timeout, cancellation) never fall
// back — the context that killed the direct path would kill the fallback
// at its first boundary too, and the caller's retry policy owns them.
func degradeOrFail(opts Options, top string, d Directives, tgt hls.Target, cause error) (*Result, error) {
	if opts.Fallback == nil || resilience.Transient(cause) {
		return nil, fmt.Errorf("adaptor flow: %w", cause)
	}
	pf, ok := resilience.AsPassFailure(cause)
	if !ok {
		pf = resilience.NewFailure("adaptor-flow", "adaptor-flow", resilience.KindError, cause)
	}
	m2 := opts.Fallback()
	if m2 == nil {
		return nil, fmt.Errorf("adaptor flow: %w (fallback builder returned no module)", cause)
	}
	fopts := opts
	fopts.Fallback = nil
	// The rerun shares the oracle (its kernel has the same reference
	// semantics) and starts its own memo cursor under the cxx
	// configuration.
	res, err := CxxFlowWith(m2, top, d, tgt, fopts)
	if err != nil {
		return nil, fmt.Errorf("adaptor flow: %w (C++ fallback also failed: %v)", cause, err)
	}
	res.Flow = "cxx-fallback"
	res.Degraded = true
	res.Failure = pf
	return res, nil
}

// CxxFlow runs the baseline HLS-C++ flow end to end.
func CxxFlow(m *mlir.Module, top string, d Directives, tgt hls.Target) (*Result, error) {
	return CxxFlowWith(m, top, d, tgt, Options{})
}

// CxxFlowWith is CxxFlow with explicit options.
func CxxFlowWith(m *mlir.Module, top string, d Directives, tgt hls.Target, opts Options) (*Result, error) {
	r := newRunner("cxx", m, top, opts)
	r.arm()
	err := r.run(r.units("cxx", d, tgt))
	if err == nil && r.memo != nil {
		// A replayed tail leaves the module behind the cursor; the Result
		// must carry the real final module.
		err = r.memo.finalize(&r.lm)
	}
	if err != nil {
		return nil, fmt.Errorf("cxx flow: %w", err)
	}
	return r.result(), nil
}

// RawFlow translates without adapting and returns the gate violations (nil
// error with non-empty violations is the expected outcome).
func RawFlow(m *mlir.Module, top string, d Directives) ([]hls.Violation, *llvm.Module, error) {
	return RawFlowWith(m, top, d, Options{})
}

// RawFlowWith is RawFlow with explicit options. It is never memoized and
// never oracle-checked: its product is the violation list, not pipeline
// IR.
func RawFlowWith(m *mlir.Module, top string, d Directives, opts Options) ([]hls.Violation, *llvm.Module, error) {
	r := newRunner("raw", m, top, opts)
	if err := r.run(r.units("raw", d, hls.Target{})); err != nil {
		return nil, nil, err
	}
	return hls.Check(r.lm), r.lm, nil
}

// Execute runs the flow's final LLVM module on the given buffers (one per
// array port, in parameter order), standing in for co-simulation.
func Execute(lm *llvm.Module, top string, mems []*interp.Mem) error {
	f := lm.FindFunc(top)
	if f == nil {
		return fmt.Errorf("execute: @%s not found", top)
	}
	if len(mems) != len(f.Params) {
		return fmt.Errorf("execute: @%s has %d ports, got %d buffers", top, len(f.Params), len(mems))
	}
	args := make([]interp.Arg, len(mems))
	for i := range mems {
		args[i] = interp.PtrArg(mems[i], 0)
	}
	machine := interp.NewMachine(lm)
	_, _, err := machine.Run(context.Background(), top, args...)
	return err
}
