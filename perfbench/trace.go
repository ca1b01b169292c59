package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one simulated
// day or one HTTP request share an ID; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every method is a
// no-op on a nil tracer, so the untraced pass runs the same code with
// tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds an interval the caller timed itself.
func (t *tracer) record(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// durations returns the length of every closed span with the given name,
// in nanoseconds, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// total sums the lengths of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var ns float64
	for _, d := range t.durations(name) {
		ns += d
	}
	return time.Duration(ns)
}

// write stores the spans as JSON lines, after one header line carrying
// the host fingerprint and run identity.
func (t *tracer) write(dir, workload string, rc runConfig) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]interface{}{"workload": workload, "seed": rc.seed, "host": rc.host, "spans": len(t.spans)})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
