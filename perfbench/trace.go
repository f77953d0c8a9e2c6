package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers whose HTTP handlers the tracer wraps.
const (
	layerCluster = "cluster"
	layerService = "service"
)

// span is one timed call at a layer boundary; start and end are offsets
// from the tracer's epoch.
type span struct {
	layer      string
	start, end time.Duration
	// bytes is the request body length of an HTTP span.
	bytes int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans around the router's and the replica's HTTP
// handlers while on is set, and keeps them in memory until taken.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// wrap returns h with a span of the given layer around every request
// served while tracing is on; a nil tracer returns h itself.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.epoch)
		h.ServeHTTP(w, r)
		t.add(span{layer: layer, start: start, end: time.Since(t.epoch), bytes: r.ContentLength})
	})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns, for each parent span, its duration minus the part
// of its interval that child spans cover: the union of the children
// clipped to the parent, so overlapping children count once.
func selfTimes(parents, children []span) []time.Duration {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	out := make([]time.Duration, len(parents))
	for i, p := range parents {
		var covered time.Duration
		cur := p.start // covered up to here
		for _, c := range kids {
			if c.start >= p.end {
				break
			}
			lo, hi := max(c.start, cur), min(c.end, p.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = p.dur() - covered
	}
	return out
}

// contained pairs each parent span with the first child span lying
// inside its interval, and returns the matched pairs. In a phase with
// one connection, the replica span a router span caused is the one it
// contains.
func contained(parents, children []span) (ps, cs []span) {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	for _, p := range parents {
		k := sort.Search(len(kids), func(i int) bool { return kids[i].start >= p.start })
		if k < len(kids) && kids[k].end <= p.end {
			ps, cs = append(ps, p), append(cs, kids[k])
		}
	}
	return ps, cs
}
