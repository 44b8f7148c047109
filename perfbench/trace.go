package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around a public function or hook. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; they are written out when
// the run ends. A nil tracer, or one switched off, records nothing, so the
// same code path serves untraced and traced phases.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its ID, or 0 when not recording.
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.recording() {
		return 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: start})
	return len(t.spans)
}

// end closes the span begin returned; id 0 is ignored.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span that has already finished (a hook that reports a
// duration after the fact).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if !t.recording() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// mark returns a position in the span log; since(mark) returns the closed
// spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span { return t.since(0) }

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans)-mark)
	for _, s := range t.spans[mark:] {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by ID: its
// duration minus the part of its interval covered by its children. Children
// may overlap one another (concurrent calls under one parent) and may spill
// past the parent; only the union of their intervals clipped to the parent
// is subtracted.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// byName collects span durations (or self times, when self is non-nil) in
// milliseconds for every span with the given name.
func byName(spans []span, name string, self map[int]int64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spanKey carries the enclosing span and request ID through a context, so
// a span opened inside a public hook (a Runner's Do) can name its parent.
type spanKey struct{}

type spanRef struct {
	id  int
	req int64
}

func withSpan(ctx context.Context, id int, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

func spanFile(workload string, seed uint64) string {
	return fmt.Sprintf("%s-seed%d.jsonl", workload, seed)
}
