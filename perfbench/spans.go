package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public call it makes. Parent is the ID of the span that caused it (0 for
// a root) and Op groups the spans of one measured operation.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op returns a fresh operation ID.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns the function that closes it together with
// the span's ID (the parent for spans it causes).
func (t *tracer) begin(name string, parent, op int64) (end func(), id int64) {
	if t == nil {
		return func() {}, 0
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}, id
}

// record adds a span that was timed elsewhere (the store wrapper times
// calls the server makes, outside any benchmark-owned span).
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) (sum float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			sum += (s.End - s.Start).Seconds()
			n++
		}
	}
	return sum, n
}

// layerOf maps a span name ("exp.prefetch") to its layer ("exp").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfSeconds returns each layer's self time: every span's duration minus
// the part of its interval that its child spans cover (children that run
// in parallel are merged before subtracting), summed per layer.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += self.Seconds()
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if s.End > 0 && b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
