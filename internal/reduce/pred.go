package reduce

import (
	"strings"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir/parser"
	"repro/internal/resilience"
)

// Outcome classifies one flow run of a candidate input.
type Outcome struct {
	// Err is the flow's error (nil on a clean run). Failure is its typed
	// form when the error carries one.
	Err     error
	Failure *resilience.PassFailure
}

// FlowOracle runs a candidate module through one flow and classifies the
// result — the predicate backend for flow-failure reduction. Flow runs are
// isolated (panics become typed failures, conformance diagnostics become
// verify failures at the "conformance" stage) so every way a flow can go
// wrong surfaces as a matchable Outcome.
type FlowOracle struct {
	// Flow is the pipeline kind: "adaptor" (default), "cxx", or "raw".
	Flow string
	// Top is the kernel function name.
	Top string
	// Directives is the configuration to run under.
	Directives flow.Directives
	// Target is the synthesis target (DefaultTarget when zero).
	Target hls.Target
	// Opts carries base flow options — notably InjectMiscompile and
	// VerifySemantics, so injected and oracle-caught failures reproduce
	// during reduction.
	Opts flow.Options
}

// Run executes the candidate text through the oracle's flow.
func (fo FlowOracle) Run(text string) Outcome {
	m, err := parser.Parse(text)
	if err != nil {
		return Outcome{Err: err}
	}
	tgt := fo.Target
	if tgt.ClockNs == 0 {
		tgt = hls.DefaultTarget()
	}
	opts := fo.Opts
	opts.Fallback = nil
	var ferr error
	switch fo.Flow {
	case "cxx":
		_, ferr = flow.CxxFlowWith(m, fo.Top, fo.Directives, tgt, opts)
	case "raw":
		_, _, ferr = flow.RawFlowWith(m, fo.Top, fo.Directives, opts)
	default:
		_, ferr = flow.AdaptorFlowWith(m, fo.Top, fo.Directives, tgt, opts)
	}
	o := Outcome{Err: ferr}
	if pf, ok := resilience.AsPassFailure(ferr); ok {
		o.Failure = pf
	}
	return o
}

// Keep builds the reduction predicate: candidate is interesting when its
// outcome matches m.
func (fo FlowOracle) Keep(m Match) Predicate {
	return func(text string) bool { return m.Interesting(fo.Run(text)) }
}

// Match specifies which outcomes count as "still the same failure". The
// zero value matches any failure at all; each set field narrows it.
type Match struct {
	// Kind requires the typed failure kind (panic, verify, miscompile, ...).
	Kind resilience.FailureKind
	// Stage and Pass pin the failing pipeline unit. Leaving them empty is
	// the norm: reduction legitimately moves a failure between units (the
	// minimal kernel may die earlier), and the kind is the identity that
	// must survive.
	Stage, Pass string
	// DiagCheck requires the failure message to contain a diagnostic
	// check name (e.g. "conformance-flavor"). Check names are the stable
	// identity of lint/conformance findings — content-derived diagnostic
	// IDs change as the input shrinks, so they are useless for matching.
	DiagCheck string
}

// Interesting reports whether the outcome satisfies the match.
func (m Match) Interesting(o Outcome) bool {
	if o.Err == nil {
		return false
	}
	f := o.Failure
	if m.Kind != "" && (f == nil || f.Kind != m.Kind) {
		return false
	}
	if m.Stage != "" && (f == nil || f.Stage != m.Stage) {
		return false
	}
	if m.Pass != "" && (f == nil || f.Pass != m.Pass) {
		return false
	}
	if m.DiagCheck != "" && !strings.Contains(o.Err.Error(), m.DiagCheck) {
		return false
	}
	return true
}

// ReduceDirectives shrinks the directive configuration toward the empty
// set, keeping only what the predicate needs: each optimization axis is
// dropped independently, so a failure that requires pipelining keeps
// Pipeline while everything else falls away. Returns the reduced set and
// the number of accepted drops.
func ReduceDirectives(d flow.Directives, keep func(flow.Directives) bool) (flow.Directives, int) {
	steps := 0
	try := func(nd flow.Directives) {
		if keep(nd) {
			d = nd
			steps++
		}
	}
	if d.Partition != nil {
		nd := d
		nd.Partition = nil
		try(nd)
	}
	if d.Flatten {
		nd := d
		nd.Flatten = false
		try(nd)
	}
	if d.Dataflow {
		nd := d
		nd.Dataflow = false
		try(nd)
	}
	if d.Unroll > 1 {
		nd := d
		nd.Unroll = 0
		try(nd)
	}
	if d.Pipeline {
		nd := d
		nd.Pipeline = false
		nd.II = 0
		try(nd)
	} else if d.II > 1 {
		nd := d
		nd.II = 1
		try(nd)
	}
	return d, steps
}
