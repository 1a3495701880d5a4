package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's side of a call
// into the system: a façade op from submit to callback, a FailSwitch, a
// batch of 256 calls into one layer. Times are ns since the tracer began.
type span struct {
	name   string
	start  int64
	end    int64
	parent int   // index of the span that caused this one, -1 for a root
	op     int64 // ordinal among the spans of that name
	count  int   // calls the span covers
}

// maxOpSpans bounds the per-op spans kept from a traced workload pass; a
// saturated pass completes millions, and the trace is read by people. Ops
// beyond the cap are counted in "dropped" and still pay the recording cost.
const maxOpSpans = 100_000

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	byName  map[string]int64
	opSpans int
	dropped int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), byName: make(map[string]int64), spans: make([]span, 0, maxOpSpans+4096)}
}

// add records a span covering count calls and returns its index.
func (t *tracer) add(parent int, name string, from, to time.Time, count int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(parent, name, from, to, count)
}

func (t *tracer) addLocked(parent int, name string, from, to time.Time, count int) int {
	t.byName[name]++
	t.spans = append(t.spans, span{
		name: name, start: int64(from.Sub(t.base)), end: int64(to.Sub(t.base)),
		parent: parent, op: t.byName[name], count: count,
	})
	return len(t.spans) - 1
}

// begin opens a span whose end is filled in by end; children name it as
// their parent in between.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, 1)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// op records one façade op, subject to the cap.
func (t *tracer) op(parent int, name string, from, to time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opSpans >= maxOpSpans {
		t.dropped++
		return
	}
	t.opSpans++
	t.addLocked(parent, name, from, to, 1)
}

// selfTimes returns, per span name, the time its spans covered that none
// of their children did. Children of one parent may overlap (ops in
// flight together), so covered time is the union of their intervals.
// Spans under the parent skip are left out.
func (t *tracer) selfTimes(skip int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.parent == skip {
			continue
		}
		self := s.end - s.start
		// Spans are appended when they end, so a parent's children are not
		// sorted by start; the union walks them in start order.
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.start
		for _, k := range iv {
			lo, end := max(k[0], hi), min(k[1], s.end)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.name] += time.Duration(self - covered)
	}
	return out
}

// write stores the spans as rows under a header naming the columns.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	rows := make([][]any, len(t.spans))
	for i, s := range t.spans {
		rows[i] = []any{s.name, s.start, s.end, s.parent, s.op, s.count}
	}
	doc := map[string]any{
		"columns": []string{"name", "start_ns", "end_ns", "parent", "op", "count"},
		"dropped": t.dropped,
		"spans":   rows,
	}
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
