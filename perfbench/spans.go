package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// tracer records layer spans from the benchmark's own wrappers around the
// program's public calls. Spans live in memory and are written out once,
// when the run ends. A nil *tracer records nothing, so the same code path
// runs traced and untraced and the difference between the two is the
// tracing overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. Parent is the id of the enclosing
// span (0 at the top level); ids start at 1.
type span struct {
	Name       string
	Parent     int32
	Start, End time.Duration // since the tracer started
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id (0 when t is nil).
func (t *tracer) start(parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime aggregates the closed spans of one name.
type layerTime struct {
	Calls       int
	Total, Self time.Duration
}

// selfPer returns the mean self time per call in the given unit, 0 for a
// layer that was never called.
func (lt layerTime) selfPer(unit time.Duration) float64 {
	if lt.Calls == 0 {
		return 0
	}
	return float64(lt.Self) / float64(lt.Calls) / float64(unit)
}

// record adds an already finished span, for intervals assembled from
// timestamps taken elsewhere. It returns the span's id.
func (t *tracer) record(parent int32, name string, start, end time.Duration) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return int32(len(t.spans))
}

// summarize returns per-name call counts, total time and self time, where
// a span's self time is its duration minus the time its direct children
// cover. Children of one span run on the span's own goroutine, one after
// another, so their durations do not overlap.
func (t *tracer) summarize() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.Total += d
		lt.Self += d - child[i+1]
		out[s.Name] = lt
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, loadable in Perfetto), with each span's id and parent id in its
// args. Spans are laid out one lane per root span so nesting renders.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	root := make([]int32, len(t.spans)+1)
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		id := int32(i + 1)
		root[id] = id
		if s.Parent > 0 {
			root[id] = root[s.Parent]
		}
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: root[id],
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": id, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
