package flow

import (
	"encoding/json"

	"repro/internal/hls"
	"repro/internal/mlir"
	"repro/internal/resilience"
)

// PipelineUnit names one unit of a flow pipeline as (stage, pass).
type PipelineUnit struct {
	Stage string
	Pass  string
}

// String renders the unit as "stage/pass" — the form bundles store.
func (u PipelineUnit) String() string { return u.Stage + "/" + u.Pass }

// PipelineUnits enumerates every pipeline unit the named flow kind runs
// under the given directives, in execution order. It reads the unit list
// the flow itself runs. The resilience tests iterate it to prove a panic
// injected into any single unit is isolated, bisected, and degraded rather
// than fatal.
func PipelineUnits(kind string, d Directives) []PipelineUnit {
	units := (&runner{}).units(kind, d, hls.Target{})
	names := make([]PipelineUnit, len(units))
	for i, u := range units {
		names[i] = u.PipelineUnit
	}
	return names
}

// Bisect replays a failed flow to localize the first offending pipeline
// unit. The replay runs with panic isolation, verify-each (so a pass that
// silently broke the IR is caught where it ran, not at the downstream
// symptom), and per-unit IR snapshotting; the result is a self-contained
// repro bundle carrying the pristine input, the directive configuration,
// the observed pass list, the pinned failure, and the IR entering the
// offending unit. orig is the original run's failure, kept when the
// replay does not reproduce (a transient failure). base carries the
// caller's hooks — notably FaultHook, so injected faults reproduce — and
// an optional Ctx bounding the replay.
func Bisect(build func() *mlir.Module, kind, label, top string, d Directives,
	tgt hls.Target, base Options, orig error) *resilience.Bundle {

	b := &resilience.Bundle{Label: label, Flow: kind, Top: top}
	if data, err := json.Marshal(d); err == nil {
		b.Directives = data
	}
	if data, err := json.Marshal(tgt); err == nil {
		b.Target = data
	}
	if orig != nil {
		if pf, ok := resilience.AsPassFailure(orig); ok {
			b.Failure = *pf
		} else {
			b.Failure = *resilience.NewFailure(kind+"-flow", kind+"-flow", resilience.KindError, orig)
		}
	}
	if build == nil {
		b.Note = "no module builder available; bundle records the original failure only"
		return b
	}
	input := build()
	if input == nil {
		b.Note = "module builder returned nil; bundle records the original failure only"
		return b
	}
	b.InputMLIR = input.Print()

	ropts := base
	ropts.Isolate = true
	ropts.VerifyEach = true
	ropts.Fallback = nil
	// A miscompile only reproduces under the oracle; arm it (and any
	// recorded deterministic corruption) for the replay.
	if b.Failure.Kind == resilience.KindMiscompile {
		ropts.VerifySemantics = true
	}
	b.Inject = ropts.InjectMiscompile
	snaps := map[string]string{}
	ropts.Observer = func(stage, pass, ir string) {
		key := stage + "/" + pass
		b.Passes = append(b.Passes, key)
		snaps[key] = ir
	}

	var err error
	switch kind {
	case "cxx":
		_, err = CxxFlowWith(input, top, d, tgt, ropts)
	case "raw":
		_, _, err = RawFlowWith(input, top, d, ropts)
	default:
		_, err = AdaptorFlowWith(input, top, d, tgt, ropts)
	}
	if err == nil {
		b.Note = "replay with verify-each did not reproduce the failure; the original run's failure was transient or environmental"
		return b
	}
	pf, ok := resilience.AsPassFailure(err)
	if !ok {
		pf = resilience.NewFailure(kind+"-flow", kind+"-flow", resilience.KindError, err)
	}
	b.Failure = *pf
	b.Reproduced = true
	b.SnapshotIR = snaps[pf.Stage+"/"+pf.Pass]
	return b
}
