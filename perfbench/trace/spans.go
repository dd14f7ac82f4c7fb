package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

// tracer records spans in memory. A disabled tracer records nothing,
// so the same replay can run untraced to measure the overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	req   string

	// allocs holds per-span heap-allocation deltas in bytes, for the
	// spans begun with beginAlloc.
	allocs map[int]uint64
	ms     runtime.MemStats
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), allocs: map[int]uint64{}}
}

// request starts a new top-level request span.
func (t *tracer) request(id string) int {
	t.req = id
	return t.begin("request")
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// beginAlloc is begin plus a heap-allocation reading taken before the
// span starts, so the reading's own cost stays outside the span.
func (t *tracer) beginAlloc(name string) (int, uint64) {
	if !t.on {
		return -1, 0
	}
	runtime.ReadMemStats(&t.ms)
	return t.begin(name), t.ms.TotalAlloc
}

func (t *tracer) endAlloc(i int, before uint64) {
	if i < 0 {
		return
	}
	t.end(i)
	runtime.ReadMemStats(&t.ms)
	t.allocs[i] = t.ms.TotalAlloc - before
}

// durations returns every span's duration in ns, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// allocKB returns the allocation deltas of the named spans in KB.
func (t *tracer) allocKB(name string) []float64 {
	var out []float64
	for i, b := range t.allocs {
		if t.spans[i].Name == name {
			out = append(out, float64(b)/1024)
		}
	}
	return out
}

// selfTimes sums each layer's self time: its spans' durations minus
// the time their children cover. Children of one span never overlap
// (the replay is sequential), so coverage is the sum of their
// durations.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
