// Package serve implements the hls-serve compile-service daemon: an
// HTTP/JSON front end over the flow-evaluation engine that accepts
// kernel+directives+target jobs from many clients, admits them under
// per-client fairness with load shedding, deduplicates identical in-flight
// requests, and persists every clean result in the digest-verified shared
// store so a crashed or restarted daemon — or a CLI pointed at the same
// directory — serves byte-identical results without re-evaluating.
//
// Endpoint summary:
//
//	POST /v1/eval    evaluate one design point (JSON in, JSON out)
//	POST /v1/sweep   evaluate the whole DSE space, streaming NDJSON events
//	GET  /healthz    liveness: 200 while the process serves
//	GET  /readyz     readiness: 503 once draining, 200 otherwise
//	GET  /stats      engine + admission counters as JSON
//
// HTTP status contract (mirrored by the thin clients in hls-dse and
// flowbench, which fall back to embedded execution on 429/503/network
// errors but treat 422 as the job's genuine outcome):
//
//	200  evaluated (or served from cache/store/dedup)
//	400  malformed request (unknown kernel, bad JSON, missing top)
//	413  request body over 1 MiB
//	422  the evaluation itself failed — a real compile error, not a
//	     server condition; never retried
//	429  client's queue is full, Retry-After set
//	503  draining or the flow's circuit breaker is open, Retry-After set
package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/mlir/passes"
)

// PartitionSpec is the wire form of passes.PartitionSpec.
type PartitionSpec struct {
	Kind   string `json:"kind"`
	Factor int    `json:"factor,omitempty"`
	Dim    int    `json:"dim,omitempty"`
}

// DirectivesSpec is the wire form of flow.Directives.
type DirectivesSpec struct {
	Pipeline  bool           `json:"pipeline,omitempty"`
	II        int            `json:"ii,omitempty"`
	Unroll    int            `json:"unroll,omitempty"`
	Partition *PartitionSpec `json:"partition,omitempty"`
	Flatten   bool           `json:"flatten,omitempty"`
	Dataflow  bool           `json:"dataflow,omitempty"`
}

// Flow converts the wire directives to the flow package's form.
func (d DirectivesSpec) Flow() flow.Directives {
	out := flow.Directives{
		Pipeline: d.Pipeline, II: d.II, Unroll: d.Unroll,
		Flatten: d.Flatten, Dataflow: d.Dataflow,
	}
	if d.Partition != nil {
		out.Partition = &passes.PartitionSpec{
			Kind: d.Partition.Kind, Factor: d.Partition.Factor, Dim: d.Partition.Dim,
		}
	}
	return out
}

// DirectivesFrom converts flow directives to their wire form.
func DirectivesFrom(d flow.Directives) DirectivesSpec {
	out := DirectivesSpec{
		Pipeline: d.Pipeline, II: d.II, Unroll: d.Unroll,
		Flatten: d.Flatten, Dataflow: d.Dataflow,
	}
	if d.Partition != nil {
		out.Partition = &PartitionSpec{
			Kind: d.Partition.Kind, Factor: d.Partition.Factor, Dim: d.Partition.Dim,
		}
	}
	return out
}

// TargetSpec is the wire form of the client-settable hls.Target knobs.
// The zero value means "the server's default target".
type TargetSpec struct {
	ClockNs   float64 `json:"clock_ns,omitempty"`
	CostModel string  `json:"cost_model,omitempty"` // "declared" or "inferred"
}

// Target materializes the spec over the default target.
func (t *TargetSpec) Target() (hls.Target, error) {
	tgt := hls.DefaultTarget()
	if t == nil {
		return tgt, nil
	}
	if t.ClockNs > 0 {
		tgt.ClockNs = t.ClockNs
	}
	switch t.CostModel {
	case "", "declared":
		tgt.CostModel = hls.CostDeclared
	case "inferred":
		tgt.CostModel = hls.CostInferred
	default:
		return tgt, fmt.Errorf("unknown cost_model %q (want declared or inferred)", t.CostModel)
	}
	return tgt, nil
}

// TargetFrom converts a target to its wire form (nil for the default).
func TargetFrom(tgt hls.Target) *TargetSpec {
	spec := &TargetSpec{}
	if def := hls.DefaultTarget(); tgt.ClockNs != def.ClockNs {
		spec.ClockNs = tgt.ClockNs
	}
	if tgt.CostModel == hls.CostInferred {
		spec.CostModel = "inferred"
	}
	if spec.ClockNs == 0 && spec.CostModel == "" {
		return nil
	}
	return spec
}

// EvalRequest asks the server to evaluate one design point. The input
// module is either a registered polybench kernel at a size preset
// (Kernel+Size) or raw MLIR text (MLIR+Top): the fields of the
// engine.RemoteSpec that resolves it. The pending journal records the
// request as received.
type EvalRequest struct {
	// Client identifies the requester for fair admission; empty means the
	// shared "anon" queue.
	Client string `json:"client,omitempty"`

	Kernel string `json:"kernel,omitempty"`
	Size   string `json:"size,omitempty"`
	MLIR   string `json:"mlir,omitempty"`
	Top    string `json:"top,omitempty"`

	// Kind selects the flow: "adaptor" (default) or "cxx".
	Kind       string         `json:"kind,omitempty"`
	Directives DirectivesSpec `json:"directives"`
	Target     *TargetSpec    `json:"target,omitempty"`
	// Verify runs the point under the differential semantic oracle.
	Verify bool `json:"verify,omitempty"`
	// DeadlineMs bounds the evaluation's wall time including queueing;
	// 0 uses the server default.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// EvalResponse is one evaluated point. Err is set (with HTTP 422) when
// the evaluation itself failed.
type EvalResponse struct {
	Label    string       `json:"label,omitempty"`
	Kind     string       `json:"kind"`
	Report   *hls.Report  `json:"report,omitempty"`
	Adaptor  *core.Report `json:"adaptor,omitempty"`
	CSource  string       `json:"csource,omitempty"`
	Degraded bool         `json:"degraded,omitempty"`
	Err      string       `json:"err,omitempty"`
	// Source records where the result came from: "cache" (in-memory),
	// "store" (shared persistent store), "dedup" (coalesced with an
	// identical in-flight request), or "computed".
	Source string `json:"source"`
}

// SweepRequest asks the server to evaluate the full DSE directive space
// for one input, streaming progress as NDJSON SweepEvents.
type SweepRequest struct {
	Client string `json:"client,omitempty"`

	Kernel string `json:"kernel,omitempty"`
	Size   string `json:"size,omitempty"`
	MLIR   string `json:"mlir,omitempty"`
	Top    string `json:"top,omitempty"`

	Target     *TargetSpec `json:"target,omitempty"`
	DeadlineMs int64       `json:"deadline_ms,omitempty"`
}

// SweepPoint is one evaluated configuration inside a sweep stream.
type SweepPoint struct {
	Label   string      `json:"label"`
	Latency int64       `json:"latency"`
	Area    float64     `json:"area"`
	Report  *hls.Report `json:"report,omitempty"`
	Source  string      `json:"source"`
}

// SweepEvent is one NDJSON line of a sweep stream: Type "point" carries
// one completed configuration, "error" one failed configuration, and the
// final "done" carries the Pareto frontier in ascending-latency order.
type SweepEvent struct {
	Type     string       `json:"type"` // "point", "error", "done"
	Point    *SweepPoint  `json:"point,omitempty"`
	Label    string       `json:"label,omitempty"`
	Err      string       `json:"err,omitempty"`
	Frontier []SweepPoint `json:"frontier,omitempty"`
	Errors   int          `json:"errors,omitempty"`
}

// StatsResponse is the /stats payload: engine counters plus the serving
// layer's own admission and dedup counters.
type StatsResponse struct {
	Engine engine.Stats `json:"engine"`
	// Requests counts admitted evaluations; Shed counts 429s; Deduped
	// counts requests coalesced onto an identical in-flight evaluation;
	// BreakerOpen counts requests rejected by an open circuit breaker;
	// Recovered counts journaled jobs re-admitted on startup.
	Requests    int64 `json:"requests"`
	Shed        int64 `json:"shed"`
	Deduped     int64 `json:"deduped"`
	BreakerOpen int64 `json:"breaker_open"`
	Recovered   int64 `json:"recovered"`
	Draining    bool  `json:"draining"`
	// StoreLen is the number of records in the shared result store.
	StoreLen int `json:"store_len"`
}
