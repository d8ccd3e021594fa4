package flow

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/oracle"
	"repro/internal/resilience"
)

// semOracle is the per-run differential-execution state behind
// Options.VerifySemantics and Options.InjectMiscompile: one reference
// execution of the module the run started from, checked against the
// evolving IR after every pipeline unit. A divergence comes back as a typed
// *resilience.PassFailure with KindMiscompile naming the unit that
// introduced it — the semantic twin of Bisect's crash localization — so it
// flows into the quarantine / repro-bundle / -replay machinery unchanged.
type semOracle struct {
	// h is the reference harness, nil until the first live unit captures
	// it; err is a failed capture's error, which every later capture on
	// the oracle returns.
	h   *oracle.Harness
	err error
	// ctx is the flow's context (Options.Ctx); a running check stops when
	// it is done.
	ctx context.Context
}

// errCapturePanicked is what a capture that panicked leaves behind: the
// panic itself fails the unit it preceded, and every later capture on the
// oracle (the C++ fallback shares it) fails with this error instead of
// checking against a nil harness.
var errCapturePanicked = errors.New("reference capture panicked")

// checkContext is the context oracle checks run under.
func checkContext(opts Options) context.Context {
	if opts.Ctx != nil {
		return opts.Ctx
	}
	return context.TODO()
}

// capture takes the reference execution of top from m, which must be the
// module before any unit rewrote it, unless the oracle already holds one.
// A failure is kept and returned again by every later capture. The caller
// runs it inside the oracle/reference boundary, which types the error: an
// uncapturable reference is an oracle limitation, never a miscompile.
func (s *semOracle) capture(m *mlir.Module, top string) error {
	if s.h == nil && s.err == nil {
		s.err = errCapturePanicked
		s.h, s.err = oracle.New(m, top)
	}
	return s.err
}

// failure types an oracle check error: wrong answers (divergence, trap,
// fuel exhaustion) are KindMiscompile; an artifact the oracle cannot
// execute is an oracle limitation, reported as KindError so it is never
// mistaken for a verified miscompile; a check the flow's context stopped
// is the transient timeout or cancellation of the unit it checked.
func (s *semOracle) failure(stage, pass string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if ierr := resilience.Interrupted(s.ctx, stage, pass); ierr != nil {
			return ierr
		}
	}
	kind := resilience.KindError
	if oracle.IsMiscompile(err) {
		kind = resilience.KindMiscompile
	}
	return resilience.NewFailure(stage, pass, kind, err)
}

// afterMLIR checks the module after an MLIR-level unit.
func (s *semOracle) afterMLIR(stage, pass string, m *mlir.Module) error {
	if err := s.h.CheckMLIRContext(s.ctx, m); err != nil {
		return s.failure(stage, pass, err)
	}
	return nil
}

// afterLLVM checks the module after an LLVM-level unit.
func (s *semOracle) afterLLVM(stage, pass string, lm *llvm.Module) error {
	if err := s.h.CheckLLVMContext(s.ctx, lm); err != nil {
		return s.failure(stage, pass, err)
	}
	return nil
}

// corruptMLIR is Options.InjectMiscompile's deterministic wrong rewrite: the
// first arith.addf becomes arith.subf (falling back to mulf→addf), a
// change that keeps the IR verifiable while changing what it computes.
func corruptMLIR(m *mlir.Module) {
	var addf, mulf *mlir.Op
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		switch o.Name {
		case mlir.OpAddF:
			if addf == nil {
				addf = o
			}
		case mlir.OpMulF:
			if mulf == nil {
				mulf = o
			}
		}
		return true
	})
	if addf != nil {
		addf.Name = mlir.OpSubF
	} else if mulf != nil {
		mulf.Name = mlir.OpAddF
	}
}

// corruptLLVM is corruptMLIR at the LLVM level: first fadd→fsub, falling
// back to fmul→fadd.
func corruptLLVM(lm *llvm.Module) {
	var fadd, fmul *llvm.Instr
	for _, f := range lm.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case llvm.OpFAdd:
					if fadd == nil {
						fadd = in
					}
				case llvm.OpFMul:
					if fmul == nil {
						fmul = in
					}
				}
			}
		}
	}
	if fadd != nil {
		fadd.Op = llvm.OpFSub
	} else if fmul != nil {
		fmul.Op = llvm.OpFAdd
	}
}

// conformanceGate is the adaptor flow's final static stage: the strict
// HLS-readable-IR subset check. Any post-adaptor construct outside the old
// Vitis LLVM's accepted subset is an adaptor bug, reported as a located
// diagnostic; the gate converts a non-empty report into a typed verify
// failure attributed to the "conformance" stage. It runs when the llvm-opt
// stage ends and is not a pipeline unit.
func conformanceGate(lm *llvm.Module) error {
	ds := hls.Conformance(lm)
	if len(ds) == 0 {
		return nil
	}
	err := fmt.Errorf("%d HLS conformance violation(s); first: %s", len(ds), ds[0].String())
	return resilience.NewFailure("conformance", "conformance", resilience.KindVerify, err)
}
