package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request or one epoch share Trace; Parent is the ID of the span that
// caused this one (0 for a root).
type span struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later ones are counted as
// dropped.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	nextID  uint64
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// newID returns a fresh identifier, for a trace or for a span whose
// children must name it before it ends (see addAs).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span.
func (t *tracer) add(name string, trace, parent uint64, start, end time.Time) {
	if t != nil {
		t.addAs(t.newID(), name, trace, parent, start, end)
	}
}

// addAs records a finished span under an ID taken from newID.
func (t *tracer) addAs(id uint64, name string, trace, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Trace: trace, ID: id, Parent: parent,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)),
	})
}

// timed runs fn as one span and returns how long it took.
func (t *tracer) timed(name string, trace, parent uint64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(name, trace, parent, start, end)
	return end.Sub(start), err
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
