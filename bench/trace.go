package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// (a request, a query, a reproduce pass) share Op; Parent is the ID of the
// span that made the call, 0 for an operation's root. Start is relative to
// the tracer's origin, or -1 when only the duration is known (experiment
// timings read back from reproduce's event stream).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends,
// so recording costs an append. A nil tracer records nothing, which is how
// untraced runs call the same code. Not safe for concurrent use.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.origin)) - s.Start
}

// add records a span whose timing was measured elsewhere.
func (t *tracer) add(op, parent int, name string, start, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start), Dur: int64(dur)})
	return len(t.spans)
}

// selfTime sums each span name's self time in ns — its duration less the
// part its direct children cover — over the spans of the ops keep accepts.
func (t *tracer) selfTime(keep func(op int) bool) map[string]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if keep(s.Op) {
			self[s.Name] += float64(s.Dur - child[s.ID])
		}
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
