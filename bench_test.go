package repro

// One benchmark per paper artifact (figures and quantitative claims; the
// short paper has no numbered tables). The experiment ids E1–E13 are
// defined in DESIGN.md §3 and reported in EXPERIMENTS.md. Ablation
// benchmarks cover the design choices DESIGN.md calls out.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/faultinject"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/portal"
	"repro/internal/rdf"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/snapcache"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
	"repro/internal/viz"
)

// --- shared fixtures (built once) ---

var (
	scholarlyOnce sync.Once
	scholarlyTool *core.HBOLD
	scholarlyURL  = "http://scholarly.example.org/sparql"
)

func scholarlyFixture(b *testing.B) *core.HBOLD {
	scholarlyOnce.Do(func() {
		tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
		tool.Registry.Add(registry.Entry{URL: scholarlyURL, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: clock.Epoch})
		tool.Connect(scholarlyURL, endpoint.LocalClient{Store: synth.Scholarly(1)})
		if err := tool.Process(scholarlyURL); err != nil {
			panic(err)
		}
		scholarlyTool = tool
	})
	return scholarlyTool
}

var (
	corpusOnce  sync.Once
	corpusTool  *core.HBOLD
	corpusURLs  []string
	corpusDescs []synth.EndpointDesc
)

// corpusFixture indexes a slice of the corpus's indexable endpoints
// (enough for stable medians while keeping setup time modest).
func corpusFixture(b *testing.B, n int) (*core.HBOLD, []string) {
	corpusOnce.Do(func() {
		corpusDescs = synth.Corpus(1)
		tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
		count := 0
		for _, d := range corpusDescs {
			if !d.Indexable || d.Dead || d.OutageProb > 0 {
				continue
			}
			if count >= 40 {
				break
			}
			tool.Registry.Add(registry.Entry{URL: d.URL, Title: d.Title, Source: registry.SourceDataHub, AddedAt: clock.Epoch})
			tool.Connect(d.URL, endpoint.LocalClient{Store: synth.BuildStore(d)})
			if err := tool.Process(d.URL); err != nil {
				panic(err)
			}
			corpusURLs = append(corpusURLs, d.URL)
			count++
		}
		corpusTool = tool
	})
	if n > len(corpusURLs) {
		n = len(corpusURLs)
	}
	return corpusTool, corpusURLs[:n]
}

// --- E1: Figure 2 exploration walkthrough ---

func BenchmarkE1_ExplorationWalkthrough(b *testing.B) {
	tool := scholarlyFixture(b)
	event := synth.ScholarlyNS + "Event"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := tool.Explore(scholarlyURL, event)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Expand(event); err != nil {
			b.Fatal(err)
		}
		ex.ExpandAll()
		if !ex.Complete() {
			b.Fatal("walkthrough incomplete")
		}
	}
}

// --- E2: §3.2 precomputed vs on-the-fly Cluster Schema display ---

func BenchmarkE2_OnTheFly(b *testing.B) {
	tool, urls := corpusFixture(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tool.ClusterSchemaOnTheFly(urls[i%len(urls)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Precomputed(b *testing.B) {
	tool, urls := corpusFixture(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tool.ClusterSchema(urls[i%len(urls)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: §3.3 portal crawl ---

func BenchmarkE3_PortalCrawl(b *testing.B) {
	corpus := synth.Corpus(1)
	portals := portal.BuildAll(corpus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := registry.New(registry.DefaultPolicy)
		for _, d := range corpus {
			if d.PreExisting {
				reg.Add(registry.Entry{URL: d.URL, Source: registry.SourceDataHub})
			}
		}
		rep, err := crawler.Crawl(context.Background(), portals, reg, clock.Epoch)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalAdded() != 70 || rep.ListedAfter != 680 {
			b.Fatalf("crawl counts wrong: +%d → %d", rep.TotalAdded(), rep.ListedAfter)
		}
	}
}

// --- E4–E7: the §3.5 visualization layouts (Figures 4–7) ---

func benchView(b *testing.B, render func(cs *cluster.Schema, s *schema.Summary) string) {
	tool := scholarlyFixture(b)
	s, err := tool.Summary(scholarlyURL)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := tool.ClusterSchema(scholarlyURL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := render(cs, s); len(out) < 100 {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkE4_Treemap(b *testing.B) {
	benchView(b, func(cs *cluster.Schema, s *schema.Summary) string {
		return viz.TreemapView(cs, s, 1000, 700)
	})
}

func BenchmarkE5_Sunburst(b *testing.B) {
	benchView(b, func(cs *cluster.Schema, s *schema.Summary) string {
		return viz.SunburstView(cs, s, 800)
	})
}

func BenchmarkE6_CirclePack(b *testing.B) {
	benchView(b, func(cs *cluster.Schema, s *schema.Summary) string {
		return viz.CirclePackView(cs, s, 800)
	})
}

func BenchmarkE7_EdgeBundling(b *testing.B) {
	benchView(b, func(cs *cluster.Schema, s *schema.Summary) string {
		return viz.BundleView(cs, s, synth.ScholarlyNS+"Event", 900)
	})
}

// --- E8: §5 "tested on 130 Big LD" full pipeline ---

func BenchmarkE8_FullPipeline(b *testing.B) {
	descs := synth.Corpus(1)
	var indexable []synth.EndpointDesc
	for _, d := range descs {
		if d.Indexable && !d.Dead && d.OutageProb == 0 {
			indexable = append(indexable, d)
		}
	}
	// pre-build stores so the bench times the pipeline, not generation
	stores := make([]*store.Store, 0, 12)
	for i := 0; i < 12 && i < len(indexable); i++ {
		stores = append(stores, synth.BuildStore(indexable[i]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := indexable[i%len(stores)]
		st := stores[i%len(stores)]
		tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
		tool.Registry.Add(registry.Entry{URL: d.URL, AddedAt: clock.Epoch})
		tool.Connect(d.URL, endpoint.LocalClient{Store: st})
		if err := tool.Process(d.URL); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: §3.1 update scheduler over a simulated 60 days ---

func BenchmarkE9_UpdateScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ck := clock.NewSim(clock.Epoch)
		reg := registry.New(registry.DefaultPolicy)
		avail := make([]*endpoint.Availability, 200)
		for j := range avail {
			reg.Add(registry.Entry{URL: fmt.Sprintf("http://e%d/sparql", j), AddedAt: clock.Epoch})
			avail[j] = endpoint.NewAvailability(int64(j), 0.15)
		}
		for day := 0; day < 60; day++ {
			for _, url := range reg.Due(ck.Now()) {
				var idx int
				fmt.Sscanf(url, "http://e%d/sparql", &idx)
				if avail[idx].UpOn(day) {
					reg.RecordSuccess(url, ck.Now())
				} else {
					reg.RecordFailure(url, ck.Now())
				}
			}
			ck.AdvanceDays(1)
		}
		if reg.IndexedCount() < 190 {
			b.Fatalf("scheduler left %d endpoints unindexed", 200-reg.IndexedCount())
		}
	}
}

// --- E10: §3.4 manual insertion with notification ---

func BenchmarkE10_ManualInsertion(b *testing.B) {
	st := synth.Generate(synth.Spec{Name: "manual", Classes: 6, Instances: 200, ObjectProps: 8, DataProps: 6, LinkFactor: 1, Seed: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
		url := "http://manual.example.org/sparql"
		if err := tool.SubmitEndpoint(url, "Manual LD", "user@example.org"); err != nil {
			b.Fatal(err)
		}
		tool.Connect(url, endpoint.LocalClient{Store: st})
		if ok, _ := tool.RunDue(); ok != 1 {
			b.Fatal("manual endpoint not processed")
		}
		if tool.Outbox.Len() != 1 {
			b.Fatal("notification not sent")
		}
		tool.Close()
	}
}

// --- E12: sequential vs concurrent RunDue over the sched worker pool ---

// latencyClient adds a real (slept) per-query delay on top of a local
// client, standing in for the network round-trip to a public endpoint.
// The Remote cost model is accounted rather than slept, so without this
// the benchmark would only measure the CPU-bound regime; extraction
// against live endpoints is latency-bound, which is exactly where the
// worker pool pays off.
type latencyClient struct {
	c     endpoint.Client
	delay time.Duration
}

func (l latencyClient) Query(ctx context.Context, q string) (*sparql.Result, error) {
	time.Sleep(l.delay)
	return l.c.Query(ctx, q)
}

const e12Endpoints = 12

var (
	e12Once   sync.Once
	e12Stores []*store.Store
)

func e12Tool(b *testing.B, workers int) (*core.HBOLD, *clock.Sim) {
	e12Once.Do(func() {
		for i := 0; i < e12Endpoints; i++ {
			e12Stores = append(e12Stores, synth.Generate(synth.Spec{
				Name: fmt.Sprintf("e12-%d", i), Classes: 6, Instances: 150,
				ObjectProps: 8, DataProps: 4, LinkFactor: 1, Seed: int64(100 + i),
			}))
		}
	})
	ck := clock.NewSim(clock.Epoch)
	tool := core.New(docstore.MustOpenMem(), ck)
	tool.SchedulerConfig = sched.Config{Workers: workers}
	for i, st := range e12Stores {
		url := fmt.Sprintf("http://e12-%d.example.org/sparql", i)
		tool.Registry.Add(registry.Entry{URL: url, AddedAt: clock.Epoch})
		tool.Connect(url, latencyClient{c: endpoint.LocalClient{Store: st}, delay: 2 * time.Millisecond})
	}
	return tool, ck
}

func benchRunDue(b *testing.B, workers int) {
	tool, ck := e12Tool(b, workers)
	defer tool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, failed := tool.RunDueConcurrent(context.Background())
		if ok != e12Endpoints || failed != 0 {
			b.Fatalf("run = %d ok, %d failed", ok, failed)
		}
		// the weekly §3.1 refresh makes every endpoint due again
		ck.AdvanceDays(8)
	}
}

func BenchmarkE12_RunDueSequential(b *testing.B) { benchRunDue(b, 1) }

func BenchmarkE12_RunDueConcurrent(b *testing.B) { benchRunDue(b, 8) }

// --- E13: versioned snapshot cache on the presentation read path ---

// e13Readers is the concurrency the acceptance criterion names: the
// cached read path must be ≥10× faster than the uncached one at 32
// concurrent readers.
const e13Readers = 32

// e13Server builds a one-dataset presentation server whose snapshot
// cache has the given byte budget (0 = caching disabled, the pre-cache
// read path that deserialized the docstore JSON and recomputed layout
// geometry on every request).
func e13Server(b *testing.B, budget int64) (*server.Server, *core.HBOLD) {
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	tool.Cache = snapcache.New(budget)
	tool.Registry.Add(registry.Entry{URL: scholarlyURL, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: clock.Epoch})
	tool.Connect(scholarlyURL, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := tool.Process(scholarlyURL); err != nil {
		b.Fatal(err)
	}
	return server.New(tool), tool
}

// e13Paths is the read mix: JSON summaries and cluster schemas, one
// layout model, and three rendered SVG views.
func e13Paths() []string {
	ds := url.QueryEscape(scholarlyURL)
	return []string{
		"/api/summary?dataset=" + ds,
		"/api/cluster?dataset=" + ds,
		"/api/model/treemap?dataset=" + ds,
		"/view/treemap?dataset=" + ds,
		"/view/sunburst?dataset=" + ds,
		"/view/circlepack?dataset=" + ds,
	}
}

func benchE13Reads(b *testing.B, budget int64) {
	h, _ := e13Server(b, budget)
	paths := e13Paths()
	// warm: populates the cache when one is enabled
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s -> %d", p, rec.Code)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((e13Readers + procs - 1) / procs)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := paths[i%len(paths)]
			i++
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
			if rec.Code != http.StatusOK {
				b.Errorf("%s -> %d", p, rec.Code)
				return
			}
		}
	})
}

func BenchmarkE13_Uncached32(b *testing.B)  { benchE13Reads(b, 0) }
func BenchmarkE13_CachedHot32(b *testing.B) { benchE13Reads(b, core.DefaultCacheBudget) }

// BenchmarkE13_CachedPostRefresh times the first read after a refresh:
// every iteration re-extracts the dataset (untimed), bumping the
// generation and invalidating the cache, so the timed read always pays
// the full miss (decode, layout, render, cache fill).
func BenchmarkE13_CachedPostRefresh(b *testing.B) {
	h, tool := e13Server(b, core.DefaultCacheBudget)
	path := "/view/treemap?dataset=" + url.QueryEscape(scholarlyURL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := tool.Process(scholarlyURL); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkE13_Revalidate304 times an If-None-Match revalidation of an
// unchanged dataset: the server answers 304 from the generation counter
// alone, recomputing nothing.
func BenchmarkE13_Revalidate304(b *testing.B) {
	h, _ := e13Server(b, core.DefaultCacheBudget)
	path := "/view/treemap?dataset=" + url.QueryEscape(scholarlyURL)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		b.Fatalf("warm status=%d etag=%q", rec.Code, etag)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", etag)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// --- E11: Listing 1 verbatim ---

func BenchmarkE11_Listing1Query(b *testing.B) {
	portals := portal.BuildAll(synth.Corpus(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := portals[i%len(portals)]
		res, err := p.Client().Query(context.Background(), portal.Listing1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != p.SparqlDatasets {
			b.Fatalf("rows = %d, want %d", len(res.Rows), p.SparqlDatasets)
		}
	}
}

// --- Ablations ---

var (
	ablSummaryOnce sync.Once
	ablSummary     *schema.Summary
)

func ablationSummary(b *testing.B) *schema.Summary {
	ablSummaryOnce.Do(func() {
		st := synth.Generate(synth.Spec{
			Name: "abl", Classes: 40, Instances: 4000, ObjectProps: 80,
			DataProps: 30, LinkFactor: 1, CommunitySeeds: 5, Seed: 17,
		})
		ix, err := extraction.New().Extract(context.Background(), endpoint.LocalClient{Store: st}, "abl", clock.Epoch)
		if err != nil {
			panic(err)
		}
		ablSummary = schema.Build(ix)
	})
	return ablSummary
}

func benchCommunity(b *testing.B, alg cluster.Algorithm) {
	s := ablationSummary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := cluster.Build(s, cluster.Options{Algorithm: alg, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if cs.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkAblation_CommunityLouvain(b *testing.B) {
	benchCommunity(b, cluster.Louvain)
}

func BenchmarkAblation_CommunityLabelPropagation(b *testing.B) {
	benchCommunity(b, cluster.LabelPropagation)
}

func BenchmarkAblation_CommunityGirvanNewman(b *testing.B) {
	benchCommunity(b, cluster.GirvanNewman)
}

var (
	ablStoreOnce sync.Once
	ablStore     *store.Store
)

func ablationStore(b *testing.B) *store.Store {
	ablStoreOnce.Do(func() {
		ablStore = synth.Generate(synth.Spec{
			Name: "ablx", Classes: 10, Instances: 2000, ObjectProps: 15,
			DataProps: 10, LinkFactor: 1, Seed: 23,
		})
	})
	return ablStore
}

func BenchmarkAblation_ExtractionAggregate(b *testing.B) {
	st := ablationStore(b)
	c := endpoint.LocalClient{Store: st}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := extraction.New().Extract(context.Background(), c, "x", clock.Epoch)
		if err != nil {
			b.Fatal(err)
		}
		if ix.Strategy != "aggregate" {
			b.Fatal("expected aggregate strategy")
		}
	}
}

func BenchmarkAblation_ExtractionMixed(b *testing.B) {
	st := ablationStore(b)
	r := endpoint.NewRemote("nogroup", "x", st, endpoint.ProfileNoGroupBy, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := extraction.New().Extract(context.Background(), r, "x", clock.Epoch)
		if err != nil {
			b.Fatal(err)
		}
		if ix.Strategy != "mixed" {
			b.Fatal("expected mixed strategy")
		}
	}
}

func BenchmarkAblation_ExtractionEnumerate(b *testing.B) {
	st := ablationStore(b)
	r := endpoint.NewRemote("noagg", "x", st, endpoint.ProfileNoAgg, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := extraction.New().Extract(context.Background(), r, "x", clock.Epoch)
		if err != nil {
			b.Fatal(err)
		}
		if ix.Strategy != "enumerate" {
			b.Fatal("expected enumerate strategy")
		}
	}
}

func BenchmarkAblation_StoreIndexedLookup(b *testing.B) {
	st := ablationStore(b)
	typeT := store.Pattern{P: rdf.NewIRI(rdf.RDFType)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.Count(typeT) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkAblation_StoreFullScanFilter(b *testing.B) {
	st := ablationStore(b)
	want := rdf.NewIRI(rdf.RDFType)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		st.Match(store.Pattern{}, func(t rdf.Triple) bool {
			if t.P == want {
				n++
			}
			return true
		})
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

// --- E14: the query engine vs the term-space reference evaluator ---

// The evaluator is the innermost loop of every synthetic endpoint, so E1,
// E2, E8 and E12 all inherit this speedup; E14 isolates it on three query
// mixes. "{C}" in a query is replaced by the store's biggest class.

var (
	e14Once   sync.Once
	e14St     *store.Store
	e14Class  string
	e14Class2 string
)

func e14Store(b *testing.B) (*store.Store, string, string) {
	e14Once.Do(func() {
		e14St = synth.Generate(synth.Spec{
			Name: "e14", Classes: 12, Instances: 2500, ObjectProps: 24,
			DataProps: 8, LinkFactor: 2, CommunitySeeds: 3, Seed: 99,
		})
		cls := e14St.Classes()
		e14Class = cls[0].Class.Value
		e14Class2 = cls[1].Class.Value
	})
	return e14St, e14Class, e14Class2
}

var e14Mixes = []struct {
	name    string
	queries []string
}{
	{"bgp", []string{
		`SELECT ?x ?y WHERE { ?x a <{C}> . ?x ?p ?y . ?y a <{C2}> }`,
		`SELECT ?x WHERE { ?x ?p ?y . ?y ?q ?z . ?z a <{C}> . ?x a <{C2}> }`,
		`SELECT ?x ?y WHERE { ?x ?p ?y . ?y ?q ?x }`,
	}},
	{"distinct", []string{
		`SELECT DISTINCT ?c WHERE { ?s a ?c }`,
		`SELECT DISTINCT ?p WHERE { ?s ?p ?o }`,
		`SELECT DISTINCT ?x ?c WHERE { ?x a ?c . ?x ?p ?o }`,
	}},
	{"aggregate", []string{
		`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p`,
	}},
}

func benchE14(b *testing.B, queries []string, exec func(*sparql.Query, store.Queryable) (*sparql.Result, error)) {
	st, class, class2 := e14Store(b)
	parsed := make([]*sparql.Query, len(queries))
	for i, q := range queries {
		q = strings.ReplaceAll(q, "{C2}", class2)
		parsed[i] = sparql.MustParse(strings.ReplaceAll(q, "{C}", class))
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := exec(parsed[i%len(parsed)], st)
		if err != nil {
			b.Fatal(err)
		}
		rows += len(res.Rows)
	}
	if b.N >= len(queries) && rows == 0 {
		b.Fatal("benchmark queries produced no rows")
	}
}

func BenchmarkE14_QueryEngine(b *testing.B) {
	for _, mix := range e14Mixes {
		mix := mix
		b.Run(mix.name+"/engine", func(b *testing.B) { benchE14(b, mix.queries, (*sparql.Query).Exec) })
		b.Run(mix.name+"/reference", func(b *testing.B) { benchE14(b, mix.queries, (*sparql.Query).ExecReference) })
	}
}

// --- E15: streaming vs materialized query consumption over the wire ---

// E15 measures what the context-aware streaming API buys the
// enumeration-strategy extraction workload: rows are decoded token-wise
// off the HTTP response and folded into aggregation state one at a time,
// so client-side live memory stays O(row) however large the result,
// first-row latency is decoupled from last-row latency, and a canceled
// context stops the transfer within one row. The materialized path reads
// the entire results document into memory before the caller sees row one
// — live memory O(result).

var (
	e15Once sync.Once
	e15St   *store.Store
)

const e15Query = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`

func e15Store() *store.Store {
	e15Once.Do(func() {
		e15St = synth.Generate(synth.Spec{
			Name: "e15", Classes: 10, Instances: 6000, ObjectProps: 16,
			DataProps: 8, LinkFactor: 2, CommunitySeeds: 3, Seed: 77,
		})
	})
	return e15St
}

// liveHeapKB reports live heap after a full collection, so the two E15
// paths are compared on resident rows, not allocation churn. The pause
// first lets the in-process protocol server stall on TCP backpressure —
// otherwise its per-row garbage, allocated concurrently with the
// measurement, reads as live memory it does not actually retain.
func liveHeapKB() float64 {
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1024
}

func BenchmarkE15_StreamEnumeration(b *testing.B) {
	srv := endpoint.Serve(e15Store(), nil)
	defer srv.Close()
	c := endpoint.NewHTTPClient(srv.URL)
	ctx := context.Background()
	if _, err := c.Query(ctx, `ASK { ?s ?p ?o }`); err != nil { // warm the transport
		b.Fatal(err)
	}
	base := liveHeapKB() // the store itself is resident either way
	b.ReportAllocs()
	b.ResetTimer()
	var firstRowNs, liveKB float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rs, err := c.Stream(ctx, e15Query)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for range rs.All() {
			if rows == 0 {
				firstRowNs += float64(time.Since(start).Nanoseconds())
			}
			rows++
			if rows == 5000 {
				// mid-transfer live heap: only the row in flight is resident
				b.StopTimer()
				if kb := liveHeapKB(); kb > liveKB {
					liveKB = kb
				}
				b.StartTimer()
			}
		}
		if rs.Err() != nil {
			b.Fatal(rs.Err())
		}
		if rows < 10000 {
			b.Fatalf("only %d rows; store too small for the comparison", rows)
		}
	}
	b.ReportMetric(firstRowNs/float64(b.N), "ns/first-row")
	b.ReportMetric(liveKB-base, "live-KB-over-base")
}

func BenchmarkE15_MaterializedEnumeration(b *testing.B) {
	srv := endpoint.Serve(e15Store(), nil)
	defer srv.Close()
	c := endpoint.NewHTTPClient(srv.URL)
	ctx := context.Background()
	if _, err := c.Query(ctx, `ASK { ?s ?p ?o }`); err != nil { // warm the transport
		b.Fatal(err)
	}
	base := liveHeapKB()
	b.ReportAllocs()
	b.ResetTimer()
	var firstRowNs, liveKB float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := c.Query(ctx, e15Query)
		if err != nil {
			b.Fatal(err)
		}
		// the first row is only visible once the whole document arrived
		firstRowNs += float64(time.Since(start).Nanoseconds())
		b.StopTimer()
		if kb := liveHeapKB(); kb > liveKB {
			liveKB = kb // the full result set is resident here
		}
		b.StartTimer()
		if len(res.Rows) < 10000 {
			b.Fatalf("only %d rows; store too small for the comparison", len(res.Rows))
		}
		runtime.KeepAlive(res)
	}
	b.ReportMetric(firstRowNs/float64(b.N), "ns/first-row")
	b.ReportMetric(liveKB-base, "live-KB-over-base")
}

// BenchmarkE15_CancelLatency measures how fast a mid-stream cancel
// returns control: the acceptance bar is "within one row boundary".
func BenchmarkE15_CancelLatency(b *testing.B) {
	srv := endpoint.Serve(e15Store(), nil)
	defer srv.Close()
	c := endpoint.NewHTTPClient(srv.URL)
	b.ReportAllocs()
	b.ResetTimer()
	var cancelNs float64
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rs, err := c.Stream(ctx, e15Query)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		var start time.Time
		for range rs.All() {
			rows++
			if rows == 100 {
				start = time.Now()
				cancel()
			}
		}
		cancelNs += float64(time.Since(start).Nanoseconds())
		if rows > 101 {
			b.Fatalf("stream produced %d rows after cancel at 100", rows-100)
		}
		if !errors.Is(rs.Err(), context.Canceled) {
			b.Fatalf("stream err = %v", rs.Err())
		}
		rs.Close()
		cancel()
	}
	b.ReportMetric(cancelNs/float64(b.N), "ns/cancel-to-return")
}

// --- E16: federated fan-out vs a sequential same-query loop ---

// E16 measures what the federation layer buys over querying N endpoints
// one after the other. Four protocol servers each hold a quarter of the
// corpus behind a simulated WAN delay (e16Latency per request — public
// endpoints answer in tens-to-hundreds of ms before the first byte).
// The sequential loop streams and drains each endpoint in turn, so its
// wall time stacks the four latencies plus the four evaluations; the
// federated fan-out opens all four concurrently, so the latencies
// overlap and — on multicore hardware — the evaluations do too (this
// box has 1 CPU, making the measured speedup pure latency-hiding, the
// floor of what real hardware sees). ns/first-row on the federated path
// is the merge's first-row latency: one WAN delay plus one row, not a
// full drain.

var (
	e16Once    sync.Once
	e16Servers []*httptest.Server
	e16Rows    int
)

const (
	e16Query   = `SELECT ?s ?c WHERE { ?s a ?c }`
	e16Latency = 60 * time.Millisecond
)

// e16Endpoints serves four partitions of the E15 corpus as SPARQL
// protocol servers with a per-request WAN delay (started once; they live
// for the whole bench binary, like the E13/E15 fixtures).
func e16Endpoints() ([]*httptest.Server, int) {
	e16Once.Do(func() {
		parts := synth.Partition(e15Store(), 4)
		for _, p := range parts {
			e16Rows += p.Count(store.Pattern{P: rdf.NewIRI(rdf.RDFType)})
			h := &endpoint.Handler{Store: p}
			e16Servers = append(e16Servers, httptest.NewServer(http.HandlerFunc(
				func(w http.ResponseWriter, r *http.Request) {
					time.Sleep(e16Latency) // connection + time-to-first-byte of a public endpoint
					h.ServeHTTP(w, r)
				})))
		}
	})
	return e16Servers, e16Rows
}

func e16Sources(servers []*httptest.Server) []*endpoint.Source {
	out := make([]*endpoint.Source, len(servers))
	for i, srv := range servers {
		out[i] = endpoint.NewSource(fmt.Sprintf("part%d", i), srv.URL, endpoint.NewHTTPClient(srv.URL))
	}
	return out
}

func BenchmarkE16_FederatedFanout(b *testing.B) {
	servers, total := e16Endpoints()
	fed := federation.New(e16Sources(servers)...)
	ctx := context.Background()
	if _, err := fed.Query(ctx, `ASK { ?s ?p ?o }`); err != nil { // warm transports
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var firstRowNs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rs, err := fed.Stream(ctx, e16Query)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for range rs.All() {
			if rows == 0 {
				firstRowNs += float64(time.Since(start).Nanoseconds())
			}
			rows++
		}
		if rs.Err() != nil {
			b.Fatal(rs.Err())
		}
		if rows != total {
			b.Fatalf("merged %d rows, partitions hold %d", rows, total)
		}
	}
	b.ReportMetric(firstRowNs/float64(b.N), "ns/first-row")
}

func BenchmarkE16_SequentialLoop(b *testing.B) {
	servers, total := e16Endpoints()
	clients := make([]*endpoint.HTTPClient, len(servers))
	ctx := context.Background()
	for i, srv := range servers {
		clients[i] = endpoint.NewHTTPClient(srv.URL)
		if _, err := clients[i].Query(ctx, `ASK { ?s ?p ?o }`); err != nil { // warm transports
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var firstRowNs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rows := 0
		for _, c := range clients {
			rs, err := c.Stream(ctx, e16Query)
			if err != nil {
				b.Fatal(err)
			}
			for range rs.All() {
				if rows == 0 {
					firstRowNs += float64(time.Since(start).Nanoseconds())
				}
				rows++
			}
			if rs.Err() != nil {
				b.Fatal(rs.Err())
			}
		}
		if rows != total {
			b.Fatalf("drained %d rows, partitions hold %d", rows, total)
		}
	}
	b.ReportMetric(firstRowNs/float64(b.N), "ns/first-row")
}

// BenchmarkE16_FirstRowCancel: open the federated stream, take one row,
// close — the cost of "peek at a federation", which is what a UI's
// first-page fetch over ?sources=all&limit=N does.
func BenchmarkE16_FirstRowCancel(b *testing.B) {
	servers, _ := e16Endpoints()
	fed := federation.New(e16Sources(servers)...)
	ctx := context.Background()
	if _, err := fed.Query(ctx, `ASK { ?s ?p ?o }`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := fed.Stream(ctx, e16Query)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := rs.Next(); !ok {
			b.Fatal("no first row")
		}
		rs.Close()
	}
}

// --- E17: observability overhead on the hot query path ---

// The unified observability layer is opt-in via the context: without a
// registry or trace attached, the engine's hooks reduce to two nil
// checks per query, and EXPLAIN's per-node hooks to one pointer check
// per plan-node invocation. E17 quantifies both arms on the E14 BGP mix
// over the streaming path — the instrumented arm pays one closure call
// per row pulled plus a handful of atomic updates at stream end. The
// acceptance gate holds the instrumented arm within 5% of the
// uninstrumented one.

func benchE17(b *testing.B, ctx context.Context) {
	st, class, class2 := e14Store(b)
	queries := e14Mixes[0].queries
	parsed := make([]*sparql.Query, len(queries))
	for i, q := range queries {
		q = strings.ReplaceAll(q, "{C2}", class2)
		parsed[i] = sparql.MustParse(strings.ReplaceAll(q, "{C}", class))
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rs, err := parsed[i%len(parsed)].Stream(ctx, st)
		if err != nil {
			b.Fatal(err)
		}
		for range rs.All() {
			rows++
		}
		if err := rs.Err(); err != nil {
			b.Fatal(err)
		}
	}
	if b.N >= len(parsed) && rows == 0 {
		b.Fatal("benchmark queries produced no rows")
	}
}

func BenchmarkE17_Observability(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchE17(b, context.Background()) })
	b.Run("metrics", func(b *testing.B) {
		benchE17(b, obs.WithRegistry(context.Background(), obs.NewRegistry()))
	})
	b.Run("metrics_trace", func(b *testing.B) {
		ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
		benchE17(b, obs.WithTrace(ctx, obs.NewTrace(nil)))
	})
}

// --- E18: bounded top-k ORDER BY … LIMIT under the streaming engine ---

// E18 measures what the top-k heap buys an ordered window query: `ORDER
// BY … LIMIT 10` over a pattern with >100k solutions retains only
// OFFSET+LIMIT rows however many the pattern produces. The baseline arm
// is the strategy this replaced — materialize every solution, sort the
// lot, emit the window — which the engine's order-by stage still runs
// when no LIMIT bounds the window.
// live-KB-over-base follows E15: live heap after a forced collection
// minus a pre-query baseline, sampled while the comparison structure is
// resident (the heap at first emitted row; the full sorted result).

var (
	e18Once sync.Once
	e18St   *store.Store
)

const e18K = 10

func e18Store() *store.Store {
	e18Once.Do(func() {
		e18St = synth.Generate(synth.Spec{
			Name: "e18", Classes: 10, Instances: 24000, ObjectProps: 16,
			DataProps: 8, LinkFactor: 3, CommunitySeeds: 3, Seed: 88,
		})
	})
	return e18St
}

func BenchmarkE18_TopKStream(b *testing.B) {
	st := e18Store()
	if st.Len() < 100000 {
		b.Fatalf("store holds %d triples; E18 requires >=100k solutions", st.Len())
	}
	q, err := sparql.Parse(fmt.Sprintf(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s ?p LIMIT %d`, e18K))
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	base := liveHeapKB()
	b.ReportAllocs()
	b.ResetTimer()
	var liveKB float64
	for i := 0; i < b.N; i++ {
		rs, err := q.Stream(ctx, st)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for range rs.All() {
			if rows == 0 {
				// the scan is done and the heap holds exactly the k
				// retained rows: this is the operator's peak residency
				b.StopTimer()
				if kb := liveHeapKB(); kb > liveKB {
					liveKB = kb
				}
				b.StartTimer()
			}
			rows++
		}
		if rs.Err() != nil {
			b.Fatal(rs.Err())
		}
		if rows != e18K {
			b.Fatalf("top-k emitted %d rows, want %d", rows, e18K)
		}
	}
	b.StopTimer()
	// the heap must have consumed every solution, not sampled some
	scanned := reg.CounterVec("hbold_stream_op_rows_total", "Rows consumed by streaming operators.", "op").With("top-k").Value()
	if scanned < float64(b.N)*100000 {
		b.Fatalf("top-k scanned %.0f rows over %d runs; want >=100k per run", scanned, b.N)
	}
	b.ReportMetric(liveKB-base, "live-KB-over-base")
	b.ReportMetric(scanned/float64(b.N), "rows-scanned/op")
	b.ReportMetric(float64(e18K), "heap-rows")
}

// BenchmarkE18_FullSortMaterialized is the pre-top-k strategy on the
// same request: materialize and sort all solutions, then window. The
// unwindowed ordered result is what the old fallback held at its peak
// to answer the identical LIMIT-10 query.
func BenchmarkE18_FullSortMaterialized(b *testing.B) {
	st := e18Store()
	q, err := sparql.Parse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s ?p`)
	if err != nil {
		b.Fatal(err)
	}
	base := liveHeapKB()
	b.ReportAllocs()
	b.ResetTimer()
	var liveKB float64
	for i := 0; i < b.N; i++ {
		res, err := q.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if kb := liveHeapKB(); kb > liveKB {
			liveKB = kb // the full sorted solution set is resident here
		}
		b.StartTimer()
		if len(res.Rows) < 100000 {
			b.Fatalf("only %d rows; store too small for the comparison", len(res.Rows))
		}
		window := res.Rows[:e18K]
		runtime.KeepAlive(window)
	}
	b.StopTimer()
	b.ReportMetric(liveKB-base, "live-KB-over-base")
}

// --- E19: hedged stream opens under injected tail latency ---

// E19 measures what hedged opens buy against a member whose responses
// occasionally draw a long tail (public endpoints stall on cold caches,
// GC pauses, or transient congestion). One protocol server answers with
// a 2 ms base latency and an 80 ms tail on 8% of requests, on a seeded
// deterministic schedule (internal/faultinject). The unhedged arm eats
// every tail in full; the hedged arm opens a second attempt after 10 ms
// and takes whichever delivers a first row first, so a tailed open is
// rescued for the price of one extra request on ~8% of opens. The
// reported percentiles are time-to-first-row over the run's samples:
// the p99 win is the experiment's acceptance gate (a rescued tail costs
// ~hedge-delay + base instead of ~tail + base), while p50 shows the
// healthy path pays nothing.

var (
	e19Once   sync.Once
	e19Server *httptest.Server
)

const (
	e19Query      = `SELECT ?s ?c WHERE { ?s a ?c }`
	e19Base       = 2 * time.Millisecond
	e19Tail       = 80 * time.Millisecond
	e19TailProb   = 0.08
	e19HedgeAfter = 10 * time.Millisecond
)

// e19Endpoint serves the scholarly corpus behind seeded tail latency
// (started once, shared by both arms — the injector's draw sequence
// advances across them but the distribution is identical).
func e19Endpoint() *httptest.Server {
	e19Once.Do(func() {
		inj := faultinject.New(faultinject.Config{
			Seed:     19,
			Latency:  e19Base,
			Tail:     e19Tail,
			TailProb: e19TailProb,
		})
		e19Server = httptest.NewServer(inj.Middleware(&endpoint.Handler{Store: synth.Scholarly(1)}))
	})
	return e19Server
}

func benchE19(b *testing.B, hedge bool) {
	srv := e19Endpoint()
	src := endpoint.NewSource("tail-member", srv.URL, endpoint.NewHTTPClient(srv.URL))
	fed := federation.New(src)
	fed.Hedge = hedge
	fed.HedgeAfter = e19HedgeAfter
	ctx := context.Background()
	if _, err := fed.Query(ctx, `ASK { ?s ?p ?o }`); err != nil { // warm transports
		b.Fatal(err)
	}
	samples := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rs, err := fed.Stream(ctx, e19Query)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := rs.Next(); !ok {
			b.Fatal("no first row")
		}
		samples = append(samples, time.Since(start))
		rs.Close()
	}
	b.StopTimer()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(samples)))
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		return float64(samples[idx].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ns/first-row")
	b.ReportMetric(pct(0.95), "p95-ns/first-row")
	b.ReportMetric(pct(0.99), "p99-ns/first-row")
}

func BenchmarkE19_HedgedFirstRow(b *testing.B)   { benchE19(b, true) }
func BenchmarkE19_UnhedgedFirstRow(b *testing.B) { benchE19(b, false) }

// --- E20: instant restart — disk cold-open vs in-memory rebuild ---

// E20 measures the property the persistent tier exists for: how long a
// restarted process takes before it can answer queries. The disk arms
// open a populated data directory — paying O(segment indexes + WAL
// tail), not O(corpus) — at two segment counts (a compacted store and
// one with compaction disabled), so the scaling with segment count is
// visible. The rebuild arm re-inserts the same triples into a fresh
// in-memory store, a strict lower bound on re-extraction, which also
// pays the query battery over the wire.

var (
	e20Once    sync.Once
	e20Triples []rdf.Triple
	e20DirFew  string
	e20DirMany string
)

func e20Fixture(b *testing.B) {
	e20Once.Do(func() {
		src := synth.Scholarly(1)
		src.Match(store.Pattern{}, func(tr rdf.Triple) bool {
			e20Triples = append(e20Triples, tr)
			return true
		})
		build := func(opts disk.Options) string {
			dir, err := os.MkdirTemp("", "hbold-e20-*")
			if err != nil {
				panic(err)
			}
			ds, err := disk.Open(dir, opts)
			if err != nil {
				panic(err)
			}
			for i, tr := range e20Triples {
				if _, err := ds.Insert(tr); err != nil {
					panic(err)
				}
				if i%2048 == 2047 {
					if err := ds.Flush(); err != nil {
						panic(err)
					}
				}
			}
			if err := ds.Close(); err != nil {
				panic(err)
			}
			return dir
		}
		// Same memtable budget in both arms — so the WAL tails match and
		// the open-time difference is the segment count alone.
		few := disk.Options{}
		few.KV.NoSync = true
		few.KV.MemtableBytes = 32 << 10
		few.KV.MaxSegments = 2 // compact aggressively
		e20DirFew = build(few)
		many := disk.Options{}
		many.KV.NoSync = true
		many.KV.MemtableBytes = 32 << 10
		many.KV.MaxSegments = 1 << 30 // never compact
		e20DirMany = build(many)
	})
}

func benchE20ColdOpen(b *testing.B, dir string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := disk.Open(dir, disk.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// prove the reopened store is serving, not just open
		if n := ds.Cardinality(store.Pattern{}); n != len(e20Triples) {
			b.Fatalf("cold-open store has %d triples, want %d", n, len(e20Triples))
		}
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(ds.KVStats().Segments), "segments")
	ds.Close()
}

func BenchmarkE20_DiskColdOpenCompacted(b *testing.B) {
	e20Fixture(b)
	benchE20ColdOpen(b, e20DirFew)
}

func BenchmarkE20_DiskColdOpenManySegments(b *testing.B) {
	e20Fixture(b)
	benchE20ColdOpen(b, e20DirMany)
}

func BenchmarkE20_RebuildInMemory(b *testing.B) {
	e20Fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := store.New()
		for _, tr := range e20Triples {
			st.Add(tr)
		}
		if st.Len() != len(e20Triples) {
			b.Fatalf("rebuild has %d triples, want %d", st.Len(), len(e20Triples))
		}
	}
}

// --- E21: live mutation — incremental index maintenance vs re-extraction ---

// E21 measures what the update subsystem's incremental maintenance
// buys: after a small mutation, extraction.ApplyDelta repairs the
// extracted index by visiting only the delta's affected subjects, while
// the alternative re-extracts the whole corpus. Each incremental
// iteration applies a 12-triple update (a new instance with properties
// and links) and then its exact inverse, returning store and index to
// the baseline — so one iteration prices two maintained updates in
// steady state. The re-extraction arm prices the same repair done from
// scratch. Two corpus sizes expose the cost curve: incremental
// maintenance is O(delta), re-extraction O(corpus).

// e21Store builds a corpus of n subjects spread over five classes, each
// with a type, two data properties and a link — shaped like the synth
// corpora but scalable.
func e21Store(n int) *store.Store {
	st := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://e21/s/%d", i))
		st.Add(rdf.Triple{S: s, P: typ, O: rdf.NewIRI(fmt.Sprintf("http://e21/C%d", i%5))})
		st.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://e21/name"), O: rdf.NewLiteral(fmt.Sprintf("n%d", i))})
		st.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://e21/rank"), O: rdf.NewLiteral(fmt.Sprintf("%d", i%7))})
		st.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://e21/next"), O: rdf.NewIRI(fmt.Sprintf("http://e21/s/%d", (i+1)%n))})
	}
	return st
}

// e21Delta is the 12-triple update: one new instance of every class plus
// a property and a link each.
func e21Delta(n int) []rdf.Triple {
	var out []rdf.Triple
	typ := rdf.NewIRI(rdf.RDFType)
	for c := 0; c < 4; c++ {
		s := rdf.NewIRI(fmt.Sprintf("http://e21/new/%d", c))
		out = append(out,
			rdf.Triple{S: s, P: typ, O: rdf.NewIRI(fmt.Sprintf("http://e21/C%d", c))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://e21/name"), O: rdf.NewLiteral(fmt.Sprintf("new%d", c))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://e21/next"), O: rdf.NewIRI(fmt.Sprintf("http://e21/s/%d", c%n))})
	}
	return out
}

func benchE21Incremental(b *testing.B, n int) {
	st := e21Store(n)
	now := clock.Epoch
	ix, err := extraction.New().Extract(context.Background(), endpoint.LocalClient{Store: st}, "http://e21/sparql", now)
	if err != nil {
		b.Fatal(err)
	}
	baseline := ix.Triples
	delta := e21Delta(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range delta {
			st.Add(tr)
		}
		extraction.ApplyDelta(ix, st, delta, nil, now)
		for _, tr := range delta {
			st.Remove(tr)
		}
		extraction.ApplyDelta(ix, st, nil, delta, now)
	}
	b.StopTimer()
	if ix.Triples != baseline {
		b.Fatalf("index drifted: %d triples, want %d", ix.Triples, baseline)
	}
	b.ReportMetric(float64(st.Len()), "corpus-triples")
}

func benchE21Reextract(b *testing.B, n int) {
	st := e21Store(n)
	for _, tr := range e21Delta(n) {
		st.Add(tr)
	}
	c := endpoint.LocalClient{Store: st}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extraction.New().Extract(context.Background(), c, "http://e21/sparql", clock.Epoch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Len()), "corpus-triples")
}

func BenchmarkE21_IncrementalDelta5k(b *testing.B)  { benchE21Incremental(b, 1250) }
func BenchmarkE21_IncrementalDelta50k(b *testing.B) { benchE21Incremental(b, 12500) }
func BenchmarkE21_Reextraction5k(b *testing.B)      { benchE21Reextract(b, 1250) }
func BenchmarkE21_Reextraction50k(b *testing.B)     { benchE21Reextract(b, 12500) }
