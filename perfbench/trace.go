package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// a public function, an HTTP request, or a probe. Spans of one query or
// append share an op ID, which HTTP requests also carry as X-Request-ID.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     string        `json:"op,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer records spans in memory while enabled. A disabled tracer costs one
// branch per call, so the untraced run measures the program, not the
// tracer.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setEnabled(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) enabled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// start opens a span and returns its ID (0 when tracing is off). Close it
// with end.
func (t *tracer) start(name, op string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, op string, parent int, fn func()) {
	id := t.start(name, op, parent)
	fn()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children count
// once; parts of a child outside the parent do not count).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.duration() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// selfTimeByName sums self time per span name.
func selfTimeByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
