package engine

import (
	"encoding/json"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hls"
)

// storedResult is the persisted form of a successful adaptor/cxx job in
// the shared on-disk result store: the synthesis report plus the
// flow-specific artifacts that are cheap, serializable, and consumed by
// result readers (tables, sweeps, the compile service). The final LLVM
// module, phase timings, and retry bookkeeping deliberately do not
// persist — they are properties of one process's execution, not of the
// job's semantic identity.
type storedResult struct {
	Kind    Kind         `json:"kind"`
	Flow    string       `json:"flow,omitempty"`
	Report  *hls.Report  `json:"report"`
	Adaptor *core.Report `json:"adaptor,omitempty"`
	CSource string       `json:"csource,omitempty"`
}

// storable reports whether a result belongs in the persistent store:
// clean, non-degraded results with a report. Degraded results are
// stand-ins for failed runs (persisting one would mask the direct path
// recovering).
func storable(r JobResult) bool {
	return r.Err == nil && !r.Degraded && r.Res != nil && r.Res.Report != nil
}

// loadStored serves a job from the persistent result store. A record that
// parses but fails the storedResult schema is quarantined exactly like a
// digest failure — corrupt-but-valid-JSON is detected and counted, never
// trusted (the castore layer already rejected digest mismatches before we
// got here).
func (e *Engine) loadStored(key string, job Job) (JobResult, bool) {
	payload, ok := e.opts.ResultStore.Get(key)
	if !ok {
		return JobResult{}, false
	}
	var sr storedResult
	if err := json.Unmarshal(payload, &sr); err != nil || sr.Report == nil || sr.Kind != job.Kind {
		e.opts.ResultStore.Quarantine(key)
		return JobResult{}, false
	}
	return JobResult{
		Label: job.Label,
		Kind:  job.Kind,
		Res: &flow.Result{
			Flow:    sr.Flow,
			Report:  sr.Report,
			Adaptor: sr.Adaptor,
			CSource: sr.CSource,
		},
		DiskHit: true,
	}, true
}

// saveStored persists a storable result. Write failures are counted by
// the store (surfaced as Stats.StoreErrors) and otherwise ignored: a
// failed persist degrades durability, never the batch.
func (e *Engine) saveStored(key string, r JobResult) {
	payload, err := json.Marshal(storedResult{
		Kind:    r.Kind,
		Flow:    r.Res.Flow,
		Report:  r.Res.Report,
		Adaptor: r.Res.Adaptor,
		CSource: r.Res.CSource,
	})
	if err != nil {
		return
	}
	_ = e.opts.ResultStore.Put(key, payload)
}

// counterSource lets Stats pull health counters out of any store that
// exposes them (castore.Store directly, incr.DiskStore by delegation).
type counterSource interface{ Counters() castore.Counters }
