package main

// The traced run (-trace 1). It builds the workload's server in-process
// from the same public constructors the hbold binary uses (server.New
// over core for serve, endpoint.Handler over a store for sparqld),
// serves it on a loopback listener, replays the same seeded streams, and
// records spans at the seams the program already exposes: an
// http.Handler wrapper, a store.Queryable/ReaderAPI decorator, and the
// endpoint.Handler Update callback. Layers without a seam are read from
// their public counters before and after, or timed by calling their
// public functions directly on the same inputs. End-to-end figures never
// come from this mode.

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// span is one timed interval; parent is an index into the tracer's
// spans (-1 for a root) and req the request id it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; they are written out at the end.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(tr.spans) - 1
}

func (tr *tracer) finish(i int) {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[i].End = now
	tr.mu.Unlock()
}

// selfMS returns, per span named name, its duration minus the time its
// children cover, in milliseconds.
func (tr *tracer) selfMS(name string) samples {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := map[int]int64{}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out samples
	for i, s := range tr.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-child[i])/1e6)
		}
	}
	return out
}

// durMS returns the durations of the spans named name, in milliseconds.
func (tr *tracer) durMS(name string) samples {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out samples
	for _, s := range tr.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	for _, s := range tr.spans {
		enc.Encode(s)
	}
	tr.mu.Unlock()
	return f.Close()
}

// countingWriter counts response bytes and passes flushes through (the
// handlers stream and flush).
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// storeCounts is what the store decorator accumulates for one request
// (or one query of the count pass).
type storeCounts struct {
	snapshotNs atomic.Int64
	calls      atomic.Int64 // MatchIDs calls
	ids        atomic.Int64 // IDs handed to the engine
	selfNs     atomic.Int64 // time inside the store, callbacks excluded
	memtable   atomic.Int64 // kv memtable keys at the last snapshot
}

// tracedStore decorates a store.Queryable; the engine sees only the
// interface, so it runs the same code path over the decorator.
type tracedStore struct {
	inner    store.Queryable
	c        *storeCounts
	tr       *tracer
	parent   int
	req      int64
	memtable func() int // kv memtable keys, nil for the memory tier
}

func (s *tracedStore) Snapshot() store.ReaderAPI {
	sp := -1
	if s.tr != nil {
		sp = s.tr.begin("snapshot", s.parent, s.req)
	}
	t := time.Now()
	r := s.inner.Snapshot()
	d := time.Since(t)
	if sp >= 0 {
		s.tr.finish(sp)
	}
	s.c.snapshotNs.Add(int64(d))
	if s.memtable != nil {
		s.c.memtable.Store(int64(s.memtable()))
	}
	return &tracedReader{inner: r, c: s.c}
}

func (s *tracedStore) Match(pat store.Pattern, fn func(rdf.Triple) bool) {
	t := time.Now()
	var cb time.Duration
	s.inner.Match(pat, func(tr rdf.Triple) bool {
		t1 := time.Now()
		ok := fn(tr)
		cb += time.Since(t1)
		return ok
	})
	s.c.calls.Add(1)
	s.c.selfNs.Add(int64(time.Since(t) - cb))
}

func (s *tracedStore) Cardinality(pat store.Pattern) int {
	t := time.Now()
	n := s.inner.Cardinality(pat)
	s.c.selfNs.Add(int64(time.Since(t)))
	return n
}

// tracedReader decorates a store.ReaderAPI snapshot.
type tracedReader struct {
	inner store.ReaderAPI
	c     *storeCounts
}

func (r *tracedReader) timed(t time.Time) { r.c.selfNs.Add(int64(time.Since(t))) }

func (r *tracedReader) Term(id store.ID) rdf.Term {
	defer r.timed(time.Now())
	return r.inner.Term(id)
}
func (r *tracedReader) Lookup(t rdf.Term) store.ID {
	defer r.timed(time.Now())
	return r.inner.Lookup(t)
}
func (r *tracedReader) MaxID() store.ID          { return r.inner.MaxID() }
func (r *tracedReader) Len() int                 { return r.inner.Len() }
func (r *tracedReader) DistinctSubjects() int    { return r.inner.DistinctSubjects() }
func (r *tracedReader) DistinctPredicates() int  { return r.inner.DistinctPredicates() }
func (r *tracedReader) DistinctObjects() int     { return r.inner.DistinctObjects() }
func (r *tracedReader) PredCount(p store.ID) int { return r.inner.PredCount(p) }
func (r *tracedReader) HasID(s, p, o store.ID) bool {
	defer r.timed(time.Now())
	return r.inner.HasID(s, p, o)
}
func (r *tracedReader) Objects(s, p store.ID) []store.ID {
	defer r.timed(time.Now())
	out := r.inner.Objects(s, p)
	r.c.ids.Add(int64(len(out)))
	return out
}
func (r *tracedReader) Subjects(p, o store.ID) []store.ID {
	defer r.timed(time.Now())
	out := r.inner.Subjects(p, o)
	r.c.ids.Add(int64(len(out)))
	return out
}
func (r *tracedReader) PredicatesBetween(s, o store.ID) []store.ID {
	defer r.timed(time.Now())
	out := r.inner.PredicatesBetween(s, o)
	r.c.ids.Add(int64(len(out)))
	return out
}
func (r *tracedReader) CardinalityIDs(pat store.IDPattern) int {
	defer r.timed(time.Now())
	return r.inner.CardinalityIDs(pat)
}

// MatchIDs times the store's own work: the callback (the engine's
// downstream operators) is subtracted.
func (r *tracedReader) MatchIDs(pat store.IDPattern, fn func(s, p, o store.ID) bool) bool {
	t := time.Now()
	var cb time.Duration
	var n int64
	ok := r.inner.MatchIDs(pat, func(s, p, o store.ID) bool {
		n++
		t1 := time.Now()
		more := fn(s, p, o)
		cb += time.Since(t1)
		return more
	})
	r.c.calls.Add(1)
	r.c.ids.Add(n)
	r.c.selfNs.Add(int64(time.Since(t) - cb))
	return ok
}

var _ store.ReaderAPI = (*tracedReader)(nil)
var _ store.Queryable = (*tracedStore)(nil)
