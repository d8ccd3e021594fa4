package reduce

import (
	"encoding/json"
	"fmt"

	"repro/internal/flow"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/resilience"
)

// Bundle minimizes a quarantine repro bundle: the recorded input MLIR is
// reduced under a predicate pinned to the recorded failure kind, the
// directive configuration is reduced against the minimized input, and
// the result is re-bisected from scratch into a fresh bundle carrying
// Reduction provenance back to the original. The original bundle is not
// modified; callers write the returned bundle alongside it (the
// -reduced filename marker keeps them apart).
//
// The match pins the failure KIND only, not the stage/pass: a minimal
// kernel may legitimately die at an earlier unit, and chasing the exact
// unit would reject most useful shrinks. Callers needing a tighter (or
// looser) predicate can reduce manually with FlowOracle + MLIR.
func Bundle(b *resilience.Bundle, o Options) (*resilience.Bundle, Result, error) {
	if b.InputMLIR == "" {
		return nil, Result{}, fmt.Errorf("reduce: bundle has no input MLIR")
	}
	d, tgt, err := flow.BundleConfig(b)
	if err != nil {
		return nil, Result{}, fmt.Errorf("reduce: %w", err)
	}
	// Re-arm everything the original failure needed: the recorded
	// injection, and the semantic oracle for a miscompile it caught
	// (Bisect does the same when replaying).
	base := flow.Options{InjectMiscompile: b.Inject,
		VerifySemantics: b.Failure.Kind == resilience.KindMiscompile}
	oracle := FlowOracle{Flow: b.Flow, Top: b.Top, Directives: d, Target: tgt, Opts: base}
	match := Match{Kind: b.Failure.Kind}

	res, err := MLIR(b.InputMLIR, oracle.Keep(match), o)
	if err != nil {
		return nil, res, err
	}
	rd, dsteps := ReduceDirectives(d, func(nd flow.Directives) bool {
		fo := oracle
		fo.Directives = nd
		return match.Interesting(fo.Run(res.MLIR))
	})

	build := func() *mlir.Module {
		m, err := parser.Parse(res.MLIR)
		if err != nil {
			return nil
		}
		return m
	}
	fo := oracle
	fo.Directives = rd
	out := fo.Run(res.MLIR)
	nb := flow.Bisect(build, b.Flow, b.Label, b.Top, rd, tgt, base, out.Err)
	nb.Scope = b.Scope
	nb.Reduced = &resilience.Reduction{
		FromID: b.ID(),
		Steps:  res.Steps + dsteps,
		Tried:  res.Tried,
	}
	if raw, err := json.Marshal(res.Orig); err == nil {
		nb.Reduced.OrigStats = raw
	}
	if raw, err := json.Marshal(res.Final); err == nil {
		nb.Reduced.FinalStats = raw
	}
	return nb, res, nil
}
