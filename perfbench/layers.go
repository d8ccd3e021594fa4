package main

import (
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/flow"
)

// layerMetric names one per-layer metric.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// serveSources are the result sources hls-serve reports.
var serveSources = []string{"cache", "store", "dedup", "computed"}

// allUnits is every pipeline unit the workloads run: the union of
// flow.PipelineUnits over both flows and every dse.Space() configuration.
func allUnits() []flow.PipelineUnit {
	var out []flow.PipelineUnit
	seen := map[flow.PipelineUnit]bool{}
	for _, kind := range []engine.Kind{engine.KindAdaptor, engine.KindCxx} {
		for _, c := range dse.Space() {
			for _, u := range flow.PipelineUnits(string(kind), c.D) {
				if !seen[u] {
					seen[u] = true
					out = append(out, u)
				}
			}
		}
	}
	return out
}

// unitName is the metric prefix of a pipeline unit.
func unitName(u flow.PipelineUnit) string { return u.Stage + "." + u.Pass }

// perLayerMetrics lists every per-layer metric in report order. Every
// workload reports all of them; a layer a workload does not exercise
// reads zero.
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) { out = append(out, layerMetric{name, unit, better}) }
	units := allUnits()
	for _, u := range units {
		add(unitName(u)+".ms", "ms", "lower")
		add(unitName(u)+".allocs", "allocs", "lower")
	}
	add("conformance.ms", "ms", "lower")
	add("cfront.mb_per_s", "MB/s", "higher")
	for _, st := range irStages {
		add(st+".ir_bytes", "bytes", "lower")
	}
	add("oracle.reference.ms", "ms", "lower")
	for _, u := range units {
		if u.Stage != "emit-hlscpp" {
			add("oracle."+unitName(u)+".ms", "ms", "lower")
		}
	}
	add("oracle.checks", "count", "lower")
	add("job.self_ms", "ms", "lower")
	add("engine.utilization", "ratio", "higher")
	for _, src := range serveSources {
		better := "higher"
		if src == "computed" {
			better = "lower"
		}
		add("serve."+src+".ratio", "ratio", better)
		add("serve."+src+".ms_p50", "ms", "lower")
	}
	add("serve.shed", "count", "lower")
	add("serve.breaker_open", "count", "lower")
	add("incr.unit_hit_ratio", "ratio", "higher")
	add("incr.full_replays", "count", "higher")
	add("castore.disk_hits", "count", "higher")
	add("castore.store_errors", "count", "lower")
	add("castore.corrupt", "count", "lower")
	add("trace.throughput_ratio", "ratio", "higher")
	return out
}

// layerResult holds per-layer values while a traced run fills them in.
type layerResult map[string]float64

// metrics renders every per-layer metric, zero where the run set none.
func (l layerResult) metrics() map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayerMetrics() {
		out[m.Name] = metric{Value: l[m.Name], Unit: m.Unit}
	}
	return out
}

// addReplay fills the unit, oracle, conformance, size and job metrics from
// a traced replay's spans and counts.
func (l layerResult) addReplay(tr *tracer, lc *layerCounts) {
	stats := tr.selfStats()
	perCall := func(name string) (float64, float64) {
		st := stats[name]
		if st == nil || st.calls == 0 {
			return 0, 0
		}
		return ms(st.self) / float64(st.calls), float64(st.selfAllocs) / float64(st.calls)
	}
	for _, u := range allUnits() {
		l[unitName(u)+".ms"], l[unitName(u)+".allocs"] = perCall(unitName(u))
		if u.Stage != "emit-hlscpp" {
			l["oracle."+unitName(u)+".ms"], _ = perCall("oracle." + unitName(u))
		}
	}
	l["conformance.ms"], _ = perCall("conformance")
	l["oracle.reference.ms"], _ = perCall("oracle.reference")
	l["job.self_ms"], _ = perCall("job")
	l["oracle.checks"] = float64(lc.checks)
	if st := stats["c-frontend.c-frontend"]; st != nil && st.self > 0 {
		l["cfront.mb_per_s"] = float64(lc.cfrontBytes) / 1e6 / st.self.Seconds()
	}
	for _, st := range irStages {
		if n := lc.irOutputs[st]; n > 0 {
			l[st+".ir_bytes"] = float64(lc.irBytes[st]) / float64(n)
		}
	}
}
