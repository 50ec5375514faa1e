package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one traced interval of host time: a name, its bounds, the span
// that caused it and the op it belongs to. Spans are recorded from the
// benchmark's own files around calls into each layer; spans inside the
// program are a later change.
type span struct {
	Name   string
	Parent int // index+1 of the parent span; 0 for a root
	Op     int // op identifier shared by the spans of one op; 0 for none
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t != nil }

// begin opens a span and returns its handle (index+1), usable as a parent.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: time.Since(t.epoch), End: -1})
	return len(t.spans)
}

func (t *tracer) end(handle int) {
	if t == nil || handle == 0 {
		return
	}
	t.spans[handle-1].End = time.Since(t.epoch)
}

// selfTimes returns, per span, its duration minus the part of it that its
// direct children cover. Children may overlap each other; the covered part
// is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// loadable in chrome://tracing and Perfetto. Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON. Spans still open are
// skipped.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i + 1, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
