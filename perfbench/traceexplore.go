package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/federation"
	"repro/internal/querybuilder"
	"repro/internal/rdf"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/snapcache"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
	"repro/internal/viz"
)

// buildServe assembles what `hbold serve -data-dir DIR -readonly=false`
// serves: the Scholarly LD plus the first five indexable demo datasets,
// processed into a disk-backed instance with a 64 MiB snapshot cache.
// It returns the instance and the stores it connected, by URL.
func buildServe(dir string, L layers) (*core.HBOLD, map[string]*store.Store, error) {
	db, err := docstore.Open(filepath.Join(dir, "docs"))
	if err != nil {
		return nil, nil, err
	}
	tool := core.New(db, clock.Real{})
	tool.CorpusDir = filepath.Join(dir, "corpus")
	if err := tool.LoadState(); err != nil {
		return nil, nil, err
	}
	tool.Cache = snapcache.New(64 << 20)
	stores := map[string]*store.Store{}
	add := func(url, title string, st *store.Store) error {
		tool.Registry.Add(registry.Entry{URL: url, Title: title})
		tool.Connect(url, endpoint.LocalClient{Store: st})
		stores[url] = st
		t := time.Now()
		err := tool.Process(url)
		L["core.process_ms"] += ms(time.Since(t))
		return err
	}
	if err := add("http://scholarly.example.org/sparql", "Scholarly LD", synth.Scholarly(1)); err != nil {
		return nil, nil, err
	}
	count := 0
	for _, d := range synth.Corpus(1) {
		if count >= 5 {
			break
		}
		if !d.Indexable || d.Dead || d.OutageProb > 0 {
			continue
		}
		if err := add(d.URL, d.Title, synth.BuildStore(d)); err != nil {
			continue
		}
		count++
	}
	return tool, stores, tool.SaveState()
}

// routeTracer wraps the serve handler: one span per request, named by
// the route group the request belongs to, plus response bytes.
type routeTracer struct {
	tr    *tracer
	h     http.Handler
	next  atomic.Int64
	mu    sync.Mutex
	bytes int64
	n     int
}

func (rt *routeTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := rt.next.Add(1)
	sp := rt.tr.begin("route."+routeGroup(r.URL.Path), -1, id)
	cw := &countingWriter{ResponseWriter: w}
	rt.h.ServeHTTP(cw, r)
	rt.tr.finish(sp)
	rt.mu.Lock()
	rt.bytes += cw.n
	rt.n++
	rt.mu.Unlock()
}

// routeGroup maps a serve path to the route groups the per-layer
// metrics name.
func routeGroup(path string) string {
	switch {
	case strings.HasPrefix(path, "/view/"), path == "/api/datasets":
		return "view"
	case strings.HasPrefix(path, "/api/model/"):
		return "model"
	case path == "/api/class":
		return "class"
	case path == "/api/explore":
		return "explore"
	case path == "/api/query":
		return "query"
	case path == "/api/update":
		return "update"
	}
	return "other"
}

func traceExplore(ctx context.Context, o *options, res *result, L layers) error {
	dir := freshDir(filepath.Join(o.work, "serve-trace"))
	tool, stores, err := buildServe(dir, L)
	if err != nil {
		return err
	}
	defer tool.Close()
	// mirroring on its own: the same corpus copy Process makes, into a
	// fresh disk store per dataset
	for url, st := range stores {
		ds, err := disk.Open(freshDir(filepath.Join(o.work, "mirror-trace")), disk.Options{})
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := tool.Extractor.MirrorCorpus(ctx, endpoint.LocalClient{Store: st}, ds); err != nil {
			ds.Close()
			return fmt.Errorf("mirroring %s: %w", url, err)
		}
		L["core.mirror_ms"] += ms(time.Since(t))
		ds.Close()
	}
	srv := server.New(tool)
	srv.ReadOnly = false
	rate := exploreRates[1]
	tr := newTracer()
	rt := &routeTracer{tr: tr, h: srv}
	var cat []*dsInfo
	var g *sessionGen
	rng := rand.New(rand.NewSource(o.seed ^ 0xa11))
	drive := func(base string, d time.Duration, t *tally) {
		if g == nil {
			if cat, err = fetchCatalog(base); err != nil {
				return
			}
			g = newSessionGen(cat, o.seed, &etagFloor{max: map[string]uint64{}})
			// fill the cache as the untraced run does
			crawl := shared(g.crawl())
			closedLoop(ctx, base, time.Hour, exploreLimitMS, t, crawl, crawl)
		}
		n := int(rate * d.Seconds())
		openLoop(base, 2, g.stream(n), poissonDue(rng, n, rate), exploreLimitMS, t)
	}
	c0 := tool.Cache.Stats()
	stopSpin, err := keepCPUsAwake()
	if err != nil {
		return err
	}
	s := alternate(srv, rt, exploreWarmup(o), o.dur, drive, L)
	stopSpin()
	if err != nil {
		return err
	}
	c1 := tool.Cache.Stats()
	res.absorb(s.plain)
	res.absorb(s.traced)
	t := s.traced
	if p := s.plain.reads.p50(); p > 0 {
		// an open loop's rate is fixed, so the overhead shows as latency
		L["trace.overhead_pct"] = (t.reads.p50()/p - 1) * 100
	}
	for _, k := range []string{"view", "class", "explore", "model", "query", "update"} {
		L["server.route."+k+".p50_ms"] = t.byKind[k].p50()
	}
	if rt.n > 0 {
		L["server.bytes_per_req"] = float64(rt.bytes) / float64(rt.n)
	}
	L["loadgen.late_p99_ms"] = t.late.quantile(0.99)
	if hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses; hits+misses > 0 {
		L["snapcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	L["snapcache.evictions"] = float64(c1.Evictions - c0.Evictions)
	L["snapcache.invalidations"] = float64(c1.Invalidations - c0.Invalidations)
	L["snapcache.collapsed"] = float64(c1.Collapsed - c0.Collapsed)
	L["snapcache.bytes_end"] = float64(c1.Bytes)
	if err := directCalls(ctx, tool, cat, o.seed, L); err != nil {
		return err
	}
	writeSpans(o, tr)
	return nil
}

// timeN runs fn reps times and returns the median duration.
func timeN(reps int, fn func()) time.Duration {
	var s samples
	for i := 0; i < reps; i++ {
		t := time.Now()
		fn()
		s.add(time.Since(t))
	}
	return time.Duration(s.p50() * float64(time.Millisecond))
}

// directCalls times the layers explore reaches without a seam by calling
// their public functions on the served datasets: the six renders, the
// exploration step, the query builder, a federated stream, and the
// write path's stages.
func directCalls(ctx context.Context, tool *core.HBOLD, cat []*dsInfo, seed int64, L layers) error {
	rng := rand.New(rand.NewSource(seed ^ 0xd1))
	views := map[string]samples{}
	var exploreUS, buildUS samples
	for _, d := range cat {
		sum, err := tool.Summary(d.URL)
		if err != nil {
			return err
		}
		cs, err := tool.ClusterSchema(d.URL)
		if err != nil {
			return err
		}
		focus := d.classes[rng.Intn(len(d.classes))]
		visible := map[string]bool{focus: true}
		for _, n := range d.nbrs[focus] {
			visible[n] = true
		}
		for name, fn := range map[string]func(){
			"treemap":       func() { viz.TreemapView(cs, sum, 1000, 700) },
			"sunburst":      func() { viz.SunburstView(cs, sum, 800) },
			"circlepack":    func() { viz.CirclePackView(cs, sum, 800) },
			"bundle":        func() { viz.BundleView(cs, sum, focus, 900) },
			"cluster_graph": func() { viz.ClusterGraphView(cs, 900) },
			"summary_graph": func() { viz.SummaryGraphView(sum, visible, 900) },
		} {
			views[name] = append(views[name], ms(timeN(3, fn)))
		}
		exploreUS = append(exploreUS, float64(timeN(5, func() {
			if ex, err := schema.NewExploration(sum, focus); err == nil {
				ex.Expand(focus)
			}
		}))/1e3)
		q := querybuilder.Query{Class: focus, Limit: 20}
		if at := d.attrs[focus]; len(at) > 0 {
			q.Attributes = at[:1]
		}
		buildUS = append(buildUS, float64(timeN(5, func() { q.Build() }))/1e3)
	}
	for name, s := range views {
		L["viz."+name+"_ms"] = s.p50()
	}
	L["schema.explore_us"] = exploreUS.p50()
	L["querybuilder.build_us"] = buildUS.p50()
	// federation: a class scan over every served dataset, index-pruned
	f, err := tool.Federation(nil, federation.IndexPrune)
	if err != nil {
		return err
	}
	var merge samples
	for i := 0; i < 10; i++ {
		d := cat[i%len(cat)]
		q := fmt.Sprintf("SELECT ?s WHERE { ?s a <%s> } LIMIT 10", d.classes[rng.Intn(len(d.classes))])
		t := time.Now()
		rs, err := f.Stream(ctx, q)
		if err != nil {
			return err
		}
		for range rs.All() {
		}
		rs.Close()
		merge.add(time.Since(t))
	}
	L["federation.merge_ms"] = merge.p50()
	var queried, pruned int
	for _, s := range f.Stats().Sources {
		queried += s.Queries
		pruned += s.Pruned
	}
	if queried+pruned > 0 {
		L["federation.pruned_ratio"] = float64(pruned) / float64(queried+pruned)
	}
	// the write path, stage by stage, on the smallest dataset
	d := cat[0]
	for _, c := range cat {
		if len(c.classes) < len(d.classes) {
			d = c
		}
	}
	var apply samples
	for i := 0; i < 5; i++ {
		text := fmt.Sprintf("INSERT DATA { <http://live.bench.example.org/trace/%d> <%s> <%s> . }", i, typePred, d.classes[i%len(d.classes)])
		t := time.Now()
		if _, err := tool.ApplyUpdate(ctx, d.URL, text); err != nil {
			return err
		}
		apply.add(time.Since(t))
	}
	L["core.apply_update_ms"] = apply.p50()
	ix, err := tool.Index(d.URL)
	if err != nil {
		return err
	}
	be, err := tool.Corpus(d.URL)
	if err != nil {
		return err
	}
	added := []rdf.Triple{rdf.NewTriple(rdf.NewIRI("http://live.bench.example.org/trace/delta"), rdf.NewIRI(typePred), rdf.NewIRI(d.classes[0]))}
	L["extraction.apply_delta_ms"] = ms(timeN(5, func() { extraction.ApplyDelta(ix, be, added, nil, time.Now()) }))
	var s *schema.Summary
	L["schema.build_ms"] = ms(timeN(5, func() { s = schema.Build(ix) }))
	L["cluster.build_ms"] = ms(timeN(5, func() { cluster.Build(s, cluster.Options{Algorithm: tool.Algorithm, Seed: tool.Seed}) }))
	scratch := docstore.MustOpenMem().Collection("bench")
	L["docstore.put_ms"] = ms(timeN(5, func() { scratch.Put(d.URL, ix) }))
	return nil
}
