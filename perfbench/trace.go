package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string
	Parent int // index of the enclosing span, -1 for a root
	Job    int // job or request id
	Thread int // worker or client that made the call
	Start  time.Duration
	End    time.Duration
	Allocs uint64 // heap allocations during the span (when counted)
}

// tracer keeps spans in memory until the run ends. Allocation counting
// reads a process-wide counter, so it is meaningful only when one
// goroutine makes all traced calls; the traced replay is serial for that
// reason.
type tracer struct {
	t0          time.Time
	countAllocs bool
	sample      []metrics.Sample

	mu    sync.Mutex
	spans []span
}

func newTracer(countAllocs bool) *tracer {
	return &tracer{
		t0:          time.Now(),
		countAllocs: countAllocs,
		sample:      []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) allocs() uint64 {
	if !t.countAllocs {
		return 0
	}
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job, thread int) int {
	a := t.allocs()
	start := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: job, Thread: thread, Start: start, Allocs: a})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	a := t.allocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	s.Allocs = a - s.Allocs
}

// endAs closes span id and renames it, for spans whose name is known only
// at the end (a request's result source).
func (t *tracer) endAs(id int, name string) {
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Name = name
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, job, thread int, fn func() error) error {
	id := t.begin(name, parent, job, thread)
	err := fn()
	t.end(id)
	return err
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	calls      int
	self       time.Duration
	selfAllocs uint64
}

// selfStats derives each span's self time (its duration minus the part of
// it that child spans cover) and self allocations, aggregated by name.
func (t *tracer) selfStats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*spanStat{}
	for i, s := range t.spans {
		covered, childAllocs := time.Duration(0), uint64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var curStart, curEnd time.Duration
		open := false
		for _, c := range kids {
			cs := t.spans[c]
			childAllocs += cs.Allocs
			switch {
			case !open:
				curStart, curEnd, open = cs.Start, cs.End, true
			case cs.Start <= curEnd:
				curEnd = max(curEnd, cs.End)
			default:
				covered += curEnd - curStart
				curStart, curEnd = cs.Start, cs.End
			}
		}
		if open {
			covered += curEnd - curStart
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.calls++
		st.self += s.End - s.Start - covered
		if s.Allocs > childAllocs {
			st.selfAllocs += s.Allocs - childAllocs
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Thread,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "job": s.Job, "allocs": s.Allocs},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
