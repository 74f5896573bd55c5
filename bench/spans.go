package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Start and end are microseconds since the child started
// tracing; unit names the (site/vantage/persona) unit the span served,
// when it served one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps a traced child's spans in memory until it exits. A nil
// tracer records nothing but still times: untraced children measure
// with the same calls and no bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// spanRef is an open span: its id (0 when not recorded) and start.
type spanRef struct {
	id    int
	start time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under parent (spanRef{} for none).
func (t *tracer) begin(name string, parent spanRef) spanRef {
	now := time.Now()
	if t == nil {
		return spanRef{start: now}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Name: name, Start: now.Sub(t.t0).Microseconds()})
	return spanRef{id: id, start: now}
}

// end closes s, tagging it with unit, and returns its duration in
// nanoseconds.
func (t *tracer) end(s spanRef, unit string) int64 {
	now := time.Now()
	if t != nil && s.id > 0 {
		t.mu.Lock()
		sp := &t.spans[s.id-1]
		sp.End, sp.Unit = now.Sub(t.t0).Microseconds(), unit
		t.mu.Unlock()
	}
	return now.Sub(s.start).Nanoseconds()
}

// durations returns the durations, in microseconds, of the spans named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
