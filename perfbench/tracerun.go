package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/endpoint"
	"repro/internal/sparql"
	"repro/internal/sparql/results"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/turtle"
	"repro/internal/update"
)

// perLayer is every per-layer metric the traced run prints, in
// BENCHMARK.json order. A layer that is not on a workload's path reads 0
// there (see README.md for which layer each workload exercises).
var perLayer = []struct{ name, unit string }{
	{"server.route.view.p50_ms", "ms"},
	{"server.route.class.p50_ms", "ms"},
	{"server.route.explore.p50_ms", "ms"},
	{"server.route.model.p50_ms", "ms"},
	{"server.route.query.p50_ms", "ms"},
	{"server.route.update.p50_ms", "ms"},
	{"server.bytes_per_req", "B"},
	{"endpoint.shape.lookup.p50_ms", "ms"},
	{"endpoint.shape.join.p50_ms", "ms"},
	{"endpoint.shape.distinct.p50_ms", "ms"},
	{"endpoint.shape.agg.p50_ms", "ms"},
	{"endpoint.shape.topk.p50_ms", "ms"},
	{"endpoint.shape.scan.p50_ms", "ms"},
	{"endpoint.update.p50_ms", "ms"},
	{"sparql.parse_us", "us"},
	{"sparql.exec_self_ms", "ms"},
	{"sparql.first_row_ms", "ms"},
	{"sparql.rows_examined_per_row", "ratio"},
	{"sparql.allocs_per_query", "count"},
	{"sparql.bytes_per_query", "B"},
	{"results.json_ms", "ms"},
	{"results.csv_ms", "ms"},
	{"results.xml_ms", "ms"},
	{"results.tsv_ms", "ms"},
	{"results.bytes_per_row", "B"},
	{"store.snapshot_us", "us"},
	{"store.match_calls_per_query", "count"},
	{"store.ids_per_query", "count"},
	{"store.self_ms", "ms"},
	{"disk.snapshot_p50_ms", "ms"},
	{"disk.snapshot_tail_ms", "ms"},
	{"disk.snapshot_share_pct", "%"},
	{"disk.self_ms", "ms"},
	{"disk.term_cache_hit_ratio", "ratio"},
	{"disk.reopen_ms", "ms"},
	{"disk.seed_ms", "ms"},
	{"kv.memtable_keys_at_snapshot", "count"},
	{"kv.wal_bytes_per_update", "B"},
	{"kv.wal_appends_per_update", "count"},
	{"kv.flushes", "count"},
	{"kv.compactions", "count"},
	{"kv.segments_end", "count"},
	{"kv.segment_bytes_end", "B"},
	{"update.apply_ms", "ms"},
	{"update.delta_triples_per_req", "count"},
	{"core.apply_update_ms", "ms"},
	{"core.process_ms", "ms"},
	{"core.mirror_ms", "ms"},
	{"extraction.apply_delta_ms", "ms"},
	{"schema.build_ms", "ms"},
	{"schema.explore_us", "us"},
	{"cluster.build_ms", "ms"},
	{"docstore.put_ms", "ms"},
	{"turtle.parse_ms", "ms"},
	{"snapcache.hit_ratio", "ratio"},
	{"snapcache.evictions", "count"},
	{"snapcache.invalidations", "count"},
	{"snapcache.collapsed", "count"},
	{"snapcache.bytes_end", "B"},
	{"viz.treemap_ms", "ms"},
	{"viz.sunburst_ms", "ms"},
	{"viz.circlepack_ms", "ms"},
	{"viz.bundle_ms", "ms"},
	{"viz.cluster_graph_ms", "ms"},
	{"viz.summary_graph_ms", "ms"},
	{"querybuilder.build_us", "us"},
	{"federation.merge_ms", "ms"},
	{"federation.pruned_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_max_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layers collects per-layer values by name.
type layers map[string]float64

// runTraced runs the workload's traced in-process replay and prints the
// per-layer metrics.
func runTraced(ctx context.Context, o *options, res *result) error {
	L := layers{}
	var err error
	switch o.workload {
	case "explore":
		err = traceExplore(ctx, o, res, L)
	case "sparql-read":
		err = traceSparqlRead(ctx, o, res, L)
	case "sparql-live":
		err = traceSparqlLive(ctx, o, res, L)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		res.Metrics.set(m.name, m.unit, L[m.name])
	}
	return nil
}

// sides is what alternate measured on the plain and the traced server.
type sides struct {
	plain, traced     *tally
	plainS, tracedS   float64 // seconds driven
	plainRate, trRate float64 // completed reads per second
}

// alternate serves the plain and the traced handler side by side and
// drives them in turns, four slices each, so drift in the served state
// over the run (a growing memtable, a filling cache) lands on both sides
// alike. drive runs one slice of load against base into t. GC counters
// are read around the traced slices.
func alternate(plain, traced http.Handler, warm, d time.Duration, drive func(base string, d time.Duration, t *tally), L layers) sides {
	ps, ts := httptest.NewServer(plain), httptest.NewServer(traced)
	defer ps.Close()
	defer ts.Close()
	s := sides{plain: newTally(), traced: newTally()}
	drive(ps.URL, warm, newTally())
	const slices = 4
	sl := d / (2 * slices)
	var cycles uint32
	var maxPause uint64
	for i := 0; i < slices; i++ {
		t0 := time.Now()
		drive(ps.URL, sl, s.plain)
		s.plainS += time.Since(t0).Seconds()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		drive(ts.URL, sl, s.traced)
		s.tracedS += time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		cycles += m1.NumGC - m0.NumGC
		for c := m0.NumGC + 1; c <= m1.NumGC && c+256 > m1.NumGC; c++ {
			maxPause = max(maxPause, m1.PauseNs[(c+255)%256])
		}
	}
	L["runtime.gc_cycles"] = float64(cycles)
	L["runtime.gc_pause_max_ms"] = float64(maxPause) / 1e6
	s.plainRate = float64(len(s.plain.reads)) / s.plainS
	s.trRate = float64(len(s.traced.reads)) / s.tracedS
	return s
}

// loadStore parses an N-Triples file the way `hbold sparqld` does.
func loadStore(path string, L layers) (*store.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	g, err := turtle.Parse(string(data))
	if err != nil {
		return nil, err
	}
	st := store.FromGraph(g)
	L["turtle.parse_ms"] = ms(time.Since(t))
	return st, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedSparqld is the sparqld handler with its seams decorated: a fresh
// endpoint.Handler per request over a store decorator that counts into
// that request's record, with the Update callback wrapped.
type tracedSparqld struct {
	tr       *tracer
	st       store.Queryable
	be       store.Backend // nil: read-only
	memtable func() int
	next     atomic.Int64
	mu       sync.Mutex
	reads    []*storeCounts
	deltas   []int
	bytes    int64
	requests int
}

func (h *tracedSparqld) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.next.Add(1)
	root := h.tr.begin("http", -1, id)
	c := &storeCounts{}
	eh := &endpoint.Handler{Store: &tracedStore{inner: h.st, c: c, tr: h.tr, parent: root, req: id, memtable: h.memtable}}
	isUpdate := false
	if h.be != nil {
		eh.Update = func(ctx context.Context, text string) (int, int, error) {
			isUpdate = true
			sp := h.tr.begin("update", root, id)
			d, err := update.ApplyText(ctx, h.be, text)
			h.tr.finish(sp)
			if err != nil {
				return 0, 0, err
			}
			h.mu.Lock()
			h.deltas = append(h.deltas, len(d.Added)+len(d.Removed))
			h.mu.Unlock()
			return len(d.Added), len(d.Removed), nil
		}
	}
	cw := &countingWriter{ResponseWriter: w}
	eh.ServeHTTP(cw, r)
	h.tr.finish(root)
	h.mu.Lock()
	if !isUpdate {
		h.reads = append(h.reads, c)
	}
	h.bytes += cw.n
	h.requests++
	h.mu.Unlock()
}

// readCounts summarizes the per-read store records.
func (h *tracedSparqld) readCounts() (snapshotUS, selfMS, memtable samples) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.reads {
		snapshotUS = append(snapshotUS, float64(c.snapshotNs.Load())/1e3)
		selfMS = append(selfMS, float64(c.selfNs.Load())/1e6)
		memtable = append(memtable, float64(c.memtable.Load()))
	}
	return
}

// shapeP50s files the per-shape latencies the load generator saw.
func shapeP50s(t *tally, L layers) {
	for _, sh := range shapeWeights {
		L["endpoint.shape."+sh.name+".p50_ms"] = t.byKind[sh.name].p50()
	}
}

func traceSparqlRead(ctx context.Context, o *options, res *result, L layers) error {
	d, nt, err := prepareData(o)
	if err != nil {
		return err
	}
	qs := genQueries(d, o.seed, 20000)
	mem, err := loadStore(nt, L)
	if err != nil {
		return err
	}
	tr := newTracer()
	th := &tracedSparqld{tr: tr, st: mem}
	next := 0
	drive := func(base string, d time.Duration, t *tally) {
		// both sides get the same queries, slice by slice
		off := (next / 2) * 997
		next++
		closedLoop(ctx, base, d, readLimitMS, t, readStream(qs, off), readStream(qs, off+len(qs)/2))
	}
	s := alternate(&endpoint.Handler{Store: mem}, th, o.warmup, o.dur, drive, L)
	res.absorb(s.plain)
	res.absorb(s.traced)
	L["trace.overhead_pct"] = (s.plainRate/s.trRate - 1) * 100
	shapeP50s(s.traced, L)
	snapUS, selfMS, _ := th.readCounts()
	L["store.snapshot_us"] = snapUS.p50()
	L["store.self_ms"] = selfMS.p50()
	countPass(ctx, mem, d, o.seed, L)
	writeSpans(o, tr)
	return nil
}

func writeSpans(o *options, tr *tracer) {
	if err := tr.write(filepath.Join(o.spans, "spans-"+o.workload+".jsonl")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}

// countPass is the deterministic single-goroutine pass over a fixed set
// of queries (ten per shape): allocation counts, rows examined and store
// call counts repeat exactly for a given seed, and parse, first-row,
// engine self time and result serialization are timed on the same
// queries.
func countPass(ctx context.Context, st store.Queryable, d *dataset, seed int64, L layers) {
	g := newQueryGen(d, seed^0xc0)
	var qs []sparqlQuery
	for _, sh := range shapeWeights {
		for i := 0; i < 10; i++ {
			qs = append(qs, g.next(sh.name))
		}
	}
	// allocations over the undecorated store
	runtime.GC()
	var m0, m1 runtime.MemStats
	var allocs, bytes uint64
	for _, q := range qs {
		runtime.ReadMemStats(&m0)
		parsed, err := sparql.Parse(q.text)
		if err != nil {
			continue
		}
		rs, err := parsed.Stream(ctx, st)
		if err != nil {
			continue
		}
		for range rs.All() {
		}
		rs.Close()
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	n := float64(len(qs))
	L["sparql.allocs_per_query"] = float64(allocs) / n
	L["sparql.bytes_per_query"] = float64(bytes) / n
	// timings and store counts over the decorator
	var parseUS, firstMS, selfMS samples
	c := &storeCounts{}
	ts := &tracedStore{inner: st, c: c}
	var examined, rows int64
	for _, q := range qs {
		t0 := time.Now()
		parsed, err := sparql.Parse(q.text)
		if err != nil {
			continue
		}
		parseUS = append(parseUS, float64(time.Since(t0))/1e3)
		s0 := c.selfNs.Load()
		t1 := time.Now()
		rs, err := parsed.Stream(ctx, ts)
		if err != nil {
			continue
		}
		first := true
		for range rs.All() {
			if first {
				firstMS = append(firstMS, ms(time.Since(t1)))
				first = false
			}
		}
		rs.Close()
		selfMS = append(selfMS, ms(time.Since(t1))-float64(c.selfNs.Load()-s0)/1e6)
		if ex, err := parsed.Explain(st); err == nil {
			examined += sumRowsOut(ex.Plan)
			rows += int64(ex.Rows)
		}
	}
	L["sparql.parse_us"] = parseUS.p50()
	L["sparql.first_row_ms"] = firstMS.p50()
	L["sparql.exec_self_ms"] = selfMS.p50()
	if rows > 0 {
		L["sparql.rows_examined_per_row"] = float64(examined) / float64(rows)
	}
	L["store.match_calls_per_query"] = float64(c.calls.Load()) / n
	L["store.ids_per_query"] = float64(c.ids.Load()) / n
	resultWriters(ctx, st, qs, L)
}

func sumRowsOut(n *sparql.ExplainNode) int64 {
	if n == nil {
		return 0
	}
	s := n.RowsOut
	for _, c := range n.Children {
		s += sumRowsOut(c)
	}
	return s
}

// byteCounter is an io.Writer that only counts.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) { b.n += int64(len(p)); return len(p), nil }

// resultWriters times each results format on the count pass's scan
// queries: the rows are materialized first, so only serialization is
// timed.
func resultWriters(ctx context.Context, st store.Queryable, qs []sparqlQuery, L layers) {
	formats := map[string]results.Format{"json": results.JSON, "csv": results.CSV, "xml": results.XML, "tsv": results.TSV}
	times := map[string]samples{}
	var jsonBytes, nrows int64
	for _, q := range qs {
		if q.shape != "scan" {
			continue
		}
		parsed, err := sparql.Parse(q.text)
		if err != nil {
			continue
		}
		rs, err := parsed.Stream(ctx, st)
		if err != nil {
			continue
		}
		res, err := rs.Collect()
		if err != nil {
			continue
		}
		for name, f := range formats {
			var bc byteCounter
			t := time.Now()
			w := results.NewWriter(f, &bc, res.Vars)
			for _, row := range res.Rows {
				w.WriteRow(row)
			}
			w.Close()
			times[name] = append(times[name], ms(time.Since(t)))
			if name == "json" {
				jsonBytes += bc.n
				nrows += int64(len(res.Rows))
			}
		}
	}
	for name := range formats {
		L["results."+name+"_ms"] = times[name].p50()
	}
	if nrows > 0 {
		L["results.bytes_per_row"] = float64(jsonBytes) / float64(nrows)
	}
}

var _ io.Writer = (*byteCounter)(nil)

func traceSparqlLive(ctx context.Context, o *options, res *result, L layers) error {
	d, nt, err := prepareData(o)
	if err != nil {
		return err
	}
	qs := genQueries(d, o.seed, 5000)
	mem, err := loadStore(nt, L)
	if err != nil {
		return err
	}
	dir := freshDir(filepath.Join(o.work, "live-trace"))
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		return err
	}
	t := time.Now()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		return err
	}
	L["disk.seed_ms"] = ms(time.Since(t))
	defer func() { ds.Close() }()
	wg := newWriteGen(d, o.seed, "", batchTriples)
	kv0 := ds.KVStats()
	h0, m0 := ds.CacheStats()
	// the untimed flush-and-compact insert and the memtable refill, as
	// in the untraced run
	sizes := make([]int, flushTriples/flushChunk, flushTriples/flushChunk+1)
	for i := range sizes {
		sizes[i] = flushChunk
	}
	for _, n := range append(sizes, fillTriples) {
		fu := wg.batchInsert(n)
		if _, err := update.ApplyText(ctx, ds, fu.text); err != nil {
			return err
		}
		wg.ack(fu)
	}
	plain := &endpoint.Handler{Store: ds, Update: func(ctx context.Context, text string) (int, int, error) {
		d, err := update.ApplyText(ctx, ds, text)
		if err != nil {
			return 0, 0, err
		}
		return len(d.Added), len(d.Removed), nil
	}}
	tr := newTracer()
	th := &tracedSparqld{tr: tr, st: ds, be: ds, memtable: func() int { return ds.KVStats().MemtableKeys }}
	next := 0
	drive := func(base string, d time.Duration, t *tally) {
		off := (next / 2) * 97
		next++
		closedLoop(ctx, base, d, liveLimitMS, t, readStream(qs, off), paced(writeRate, func() *request { return liveWrite(wg, wg.next(), nil) }))
	}
	s := alternate(plain, th, 0, o.dur, drive, L)
	res.absorb(s.plain)
	res.absorb(s.traced)
	L["trace.overhead_pct"] = (s.plainRate/s.trRate - 1) * 100
	tt := s.traced
	kv1 := ds.KVStats()
	h1, m1 := ds.CacheStats()
	shapeP50s(tt, L)
	L["endpoint.update.p50_ms"] = tt.writes.p50()
	snaps := tr.durMS("snapshot")
	L["disk.snapshot_p50_ms"] = snaps.p50()
	L["disk.snapshot_tail_ms"] = snaps.tail(tailPercentile["sparql-live"])
	if p := tt.reads.p50(); p > 0 {
		L["disk.snapshot_share_pct"] = 100 * snaps.p50() / p
	}
	_, selfMS, memtable := th.readCounts()
	L["disk.self_ms"] = selfMS.p50()
	L["kv.memtable_keys_at_snapshot"] = memtable.p50()
	if hits, misses := h1-h0, m1-m0; hits+misses > 0 {
		L["disk.term_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	L["kv.flushes"] = float64(kv1.Flushes - kv0.Flushes)
	L["kv.compactions"] = float64(kv1.Compactions - kv0.Compactions)
	L["kv.segments_end"] = float64(kv1.Segments)
	L["kv.segment_bytes_end"] = float64(kv1.SegmentBytes)
	L["update.apply_ms"] = tr.durMS("update").p50()
	th.mu.Lock()
	var dsum int
	for _, x := range th.deltas {
		dsum += x
	}
	if len(th.deltas) > 0 {
		L["update.delta_triples_per_req"] = float64(dsum) / float64(len(th.deltas))
	}
	th.mu.Unlock()
	// deterministic count pass over the write path: a fixed sequence of
	// single-client updates
	cg := newWriteGen(d, o.seed^0xc0, "count-", batchTriples)
	w0 := ds.KVStats()
	const nUpd = 50
	for i := 0; i < nUpd; i++ {
		u := cg.next()
		if _, err := update.ApplyText(ctx, ds, u.text); err != nil {
			res.Failed++
			res.errs = append(res.errs, "count pass update: "+err.Error())
			continue
		}
		cg.ack(u)
	}
	w1 := ds.KVStats()
	L["kv.wal_bytes_per_update"] = float64(w1.WALBytes-w0.WALBytes) / nUpd
	L["kv.wal_appends_per_update"] = float64(w1.WALAppends-w0.WALAppends) / nUpd
	res.Attempted += nUpd
	// the store must hold the base corpus plus both writers' shadows
	want := d.triples + len(wg.sh.list) + len(cg.sh.list)
	res.Attempted++
	if got := ds.Len(); got != want {
		res.Failed++
		res.errs = append(res.errs, fmt.Sprintf("traced store holds %d triples, want %d", got, want))
	}
	// reopen after an unclean stop: the data dir as it stands while the
	// store is still open is what SIGKILL leaves behind (every
	// acknowledged update's WAL record is written, nothing is closed).
	// Open a copy of it and time Open up to the first answered snapshot.
	crash := freshDir(filepath.Join(o.work, "live-trace-killed"))
	if err := copyDirStable(dir, crash); err != nil {
		return err
	}
	t = time.Now()
	rs, err := disk.Open(crash, disk.Options{})
	if err != nil {
		return err
	}
	n := rs.Snapshot().Len()
	L["disk.reopen_ms"] = ms(time.Since(t))
	rs.Close()
	res.Attempted++
	if n != want {
		res.Failed++
		res.errs = append(res.errs, fmt.Sprintf("store reopened after an unclean stop holds %d triples, want %d", n, want))
	}
	writeSpans(o, tr)
	return nil
}
