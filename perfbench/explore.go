package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// explore's open-loop rates (requests per second). Two connections
// sustain about 2,450 req/s against `hbold serve` on a 2-CPU 2.1 GHz
// Xeon in a closed loop, but every write stalls a connection for 50–300
// ms; from about 500 req/s up, the backlog behind those stalls decides
// the median and it wanders by 2× between runs. These rates (about 6,
// 12 and 18% of that capacity) keep it steady. read_p50_ms and
// read_tail_ms come from the middle rate.
var exploreRates = []float64{150, 300, 450}

// exploreLimitMS is explore's latency limit: a rate passes when its
// read_tail_ms stays within it and the dispatch backlog does not grow.
const exploreLimitMS = 1000.0

// writeEvery is the number of explore arrivals per POST /api/update.
const writeEvery = 1000

// exploreWarmup runs the stream at the middle rate before timing, for
// three times the other workloads' warm-up, so the snapshot cache holds
// the recurring views.
func exploreWarmup(o *options) time.Duration { return 3 * o.warmup }

// dsInfo is what the session generator knows about one served dataset.
type dsInfo struct {
	URL     string `json:"url"`
	classes []string
	nbrs    map[string][]string
	attrs   map[string][]string
}

// fetchCatalog reads the dataset list and each Schema Summary once,
// before timing, so sessions can name real classes.
func fetchCatalog(base string) ([]*dsInfo, error) {
	w := newWire(base)
	defer w.close()
	rep := w.do(&request{method: "GET", path: "/api/datasets"}, time.Now())
	if rep.err != nil || rep.status != 200 {
		return nil, fmt.Errorf("listing datasets: %v %d", rep.err, rep.status)
	}
	var list []*dsInfo
	if err := json.Unmarshal(rep.body, &list); err != nil {
		return nil, err
	}
	sort.Slice(list, func(i, j int) bool { return list[i].URL < list[j].URL })
	for _, d := range list {
		rep := w.do(&request{method: "GET", path: "/api/summary?dataset=" + url.QueryEscape(d.URL)}, time.Now())
		if rep.err != nil || rep.status != 200 {
			return nil, fmt.Errorf("summary of %s: %v %d", d.URL, rep.err, rep.status)
		}
		var s struct {
			Nodes []struct {
				IRI        string `json:"iri"`
				Attributes []struct {
					IRI string `json:"iri"`
				} `json:"attributes"`
			} `json:"nodes"`
			Edges []struct{ From, To string } `json:"edges"`
		}
		if err := json.Unmarshal(rep.body, &s); err != nil {
			return nil, err
		}
		d.nbrs, d.attrs = map[string][]string{}, map[string][]string{}
		for _, n := range s.Nodes {
			d.classes = append(d.classes, n.IRI)
			for _, a := range n.Attributes {
				d.attrs[n.IRI] = append(d.attrs[n.IRI], a.IRI)
			}
		}
		for _, e := range s.Edges {
			d.nbrs[e.From] = append(d.nbrs[e.From], e.To)
			d.nbrs[e.To] = append(d.nbrs[e.To], e.From)
		}
		if len(d.classes) == 0 {
			return nil, fmt.Errorf("dataset %s has no classes", d.URL)
		}
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("no datasets served")
	}
	return list, nil
}

// etagFloor enforces that a dataset's ETag generation never goes
// backwards: a reply must carry at least the highest generation any
// reply had carried when its request was sent.
type etagFloor struct {
	mu  sync.Mutex
	max map[string]uint64
}

func (f *etagFloor) now(ds string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.max[ds]
}

func (f *etagFloor) see(ds string, gen, floor uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if gen < floor {
		return fmt.Errorf("generation of %s went backwards: %d after %d", ds, gen, floor)
	}
	if gen > f.max[ds] {
		f.max[ds] = gen
	}
	return nil
}

// sessionGen draws seeded browse sessions over the catalog.
type sessionGen struct {
	rng    *rand.Rand
	ds     []*dsInfo
	zDS    *rand.Zipf
	zCls   map[string]*rand.Zipf
	floor  *etagFloor
	nextID int
	subset map[string][][]string // per dataset: recurring visible= subsets
	ackNT  atomic.Int64          // N-Triples bytes of acknowledged inserts
	// arrivals left before the next write
	untilWrite int
}

func newSessionGen(ds []*dsInfo, seed int64, floor *etagFloor) *sessionGen {
	rng := rand.New(rand.NewSource(seed ^ 0xe7e7))
	g := &sessionGen{rng: rng, ds: ds, floor: floor, zCls: map[string]*rand.Zipf{}, subset: map[string][][]string{}}
	g.zDS = rand.NewZipf(rng, 1.2, 2, uint64(len(ds)-1))
	// the same arrivals are writes in every run: each write invalidates
	// its dataset's cached views, and how many land in the timed window
	// would otherwise decide the tail
	g.untilWrite = writeEvery / 2
	for _, d := range ds {
		g.zCls[d.URL] = rand.NewZipf(rng, 1.2, 2, uint64(len(d.classes)-1))
	}
	return g
}

// viewReq is a GET on a versioned presentation route: status, content
// type and ETag generation are checked.
func (g *sessionGen) viewReq(kind, path, ds, ctype string) *request {
	r := &request{method: "GET", path: path, kind: kind}
	var floor uint64
	r.onSend = func() { floor = g.floor.now(ds) }
	r.check = func(rep *reply) error {
		if ct := rep.header.Get("Content-Type"); !strings.HasPrefix(ct, ctype) {
			return fmt.Errorf("content type %q, want %s", ct, ctype)
		}
		if ds == "" {
			return nil
		}
		gen, err := etagGeneration(rep.header.Get("ETag"), ds)
		if err != nil {
			return err
		}
		return g.floor.see(ds, gen, floor)
	}
	return r
}

// etagGeneration parses the generation out of a "<url>@<gen>" ETag.
func etagGeneration(etag, ds string) (uint64, error) {
	uq, err := strconv.Unquote(etag)
	if err != nil {
		return 0, fmt.Errorf("bad ETag %q", etag)
	}
	u, gen, ok := strings.Cut(uq, "@")
	if !ok || u != ds {
		return 0, fmt.Errorf("ETag %q does not name %s", etag, ds)
	}
	return strconv.ParseUint(gen, 10, 64)
}

// session appends one browse session's requests.
func (g *sessionGen) session(out []*request) []*request {
	d := g.ds[g.zDS.Uint64()]
	q := "?dataset=" + url.QueryEscape(d.URL)
	cls := d.classes[g.zCls[d.URL].Uint64()]
	qc := q + "&class=" + url.QueryEscape(cls)
	out = append(out, g.viewReq("view", "/api/datasets", "", "application/json"))
	out = append(out, g.viewReq("view", "/view/cluster-graph"+q, d.URL, "image/svg+xml"))
	views := []string{"treemap", "sunburst", "circlepack"}
	v := views[g.rng.Intn(len(views))]
	if g.rng.Intn(2) == 0 {
		out = append(out, g.viewReq("view", "/view/"+v+q, d.URL, "image/svg+xml"))
	} else {
		out = append(out, g.viewReq("model", "/api/model/"+v+q, d.URL, "application/json"))
	}
	out = append(out, g.viewReq("class", "/api/class"+qc, d.URL, "application/json"))
	ex := "/api/explore" + q + "&focus=" + url.QueryEscape(cls)
	if nb := d.nbrs[cls]; len(nb) > 0 {
		// expanding the focus reveals its neighbours; one of them is
		// expanded next
		ex += "&expand=" + url.QueryEscape(cls+","+nb[g.rng.Intn(len(nb))])
	}
	out = append(out, g.viewReq("explore", ex, d.URL, "application/json"))
	out = append(out, g.viewReq("view", "/view/summary-graph"+q+"&visible="+url.QueryEscape(strings.Join(g.visible(d, cls), ",")), d.URL, "image/svg+xml"))
	out = append(out, g.viewReq("view", "/view/bundle"+q+"&focus="+url.QueryEscape(cls), d.URL, "image/svg+xml"))
	switch x := g.rng.Float64(); {
	case x < 0.05:
		// federated: the class scan over every connected endpoint
		sq := fmt.Sprintf("SELECT ?s WHERE { ?s a <%s> } LIMIT 10", cls)
		out = append(out, g.queryReq("/api/query?sources=all&sparql="+url.QueryEscape(sq)))
	case x < 0.30:
		// the visual query builder: focus class plus one attribute
		mq := map[string]any{"Class": cls, "Limit": 20}
		if at := d.attrs[cls]; len(at) > 0 {
			mq["Attributes"] = []string{at[0]}
		}
		b, _ := json.Marshal(mq)
		r := g.queryReq("/api/query" + q)
		r.method, r.ctype, r.body = "POST", "application/json", string(b)
		out = append(out, r)
	}
	return out
}

func (g *sessionGen) queryReq(path string) *request {
	return &request{method: "GET", path: path, kind: "query", check: func(rep *reply) error {
		if ct := rep.header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
			return fmt.Errorf("content type %q, want NDJSON", ct)
		}
		if strings.Contains(string(rep.body), `"error"`) {
			return fmt.Errorf("stream ended in an error: %.200s", rep.body)
		}
		return nil
	}}
}

// visible draws the summary graph's visible= subset: the focus class
// plus neighbours, mostly from a small recurring set per dataset (cache
// hits) and otherwise fresh (a cache miss that forces a layout render).
func (g *sessionGen) visible(d *dsInfo, focus string) []string {
	pool := g.subset[d.URL]
	if len(pool) >= 8 && g.rng.Float64() < 0.85 {
		return pool[g.rng.Intn(len(pool))]
	}
	set := map[string]bool{focus: true}
	for _, n := range d.nbrs[focus] {
		if g.rng.Intn(2) == 0 {
			set[n] = true
		}
	}
	for k := 0; k < 3; k++ {
		set[d.classes[g.rng.Intn(len(d.classes))]] = true
	}
	var out []string
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	if len(pool) < 8 {
		g.subset[d.URL] = append(pool, out)
	}
	return out
}

// updateReq inserts one new instance of an existing class: the write
// drives ApplyDelta, the summary and cluster rebuild and cache
// invalidation for that dataset.
func (g *sessionGen) updateReq() *request {
	// writes go to the least-browsed dataset (the last Zipf rank): its
	// summary and cluster rebuild and cache invalidation run as for any
	// dataset, while the re-renders the invalidation causes stay few and
	// alike from run to run instead of setting the read tail
	d := g.ds[len(g.ds)-1]
	cls := d.classes[g.rng.Intn(len(d.classes))]
	g.nextID++
	triple := fmt.Sprintf("<http://live.bench.example.org/explore/%d-%d> <%s> <%s> .", g.rng.Int63(), g.nextID, typePred, cls)
	text := "INSERT DATA { " + triple + " }"
	var floor uint64
	r := &request{method: "POST", path: "/api/update?dataset=" + url.QueryEscape(d.URL), ctype: "application/sparql-update", body: text, kind: "update", write: true}
	r.onSend = func() { floor = g.floor.now(d.URL) }
	r.check = func(rep *reply) error {
		var res struct {
			Added, Removed int
			Generation     uint64
		}
		if err := json.Unmarshal(rep.body, &res); err != nil {
			return fmt.Errorf("update reply: %w", err)
		}
		if res.Added != 1 || res.Removed != 0 {
			return fmt.Errorf("update reply added=%d removed=%d, want 1/0", res.Added, res.Removed)
		}
		if err := g.floor.see(d.URL, res.Generation, floor+1); err != nil {
			return err
		}
		g.ackNT.Add(int64(len(triple) + 1))
		return nil
	}
	return r
}

// crawl returns every cached view of every dataset once (all six
// renders and three models, and each class's detail and bundle). Before
// timing, it leaves the snapshot cache as a long-running server has it;
// otherwise the first requests for rarely chosen classes would keep
// missing through the run, and the tail would depend on which classes a
// seed happened to draw.
func (g *sessionGen) crawl() []*request {
	var out []*request
	for _, d := range g.ds {
		q := "?dataset=" + url.QueryEscape(d.URL)
		for _, v := range []string{"cluster-graph", "treemap", "sunburst", "circlepack", "summary-graph"} {
			out = append(out, g.viewReq("view", "/view/"+v+q, d.URL, "image/svg+xml"))
		}
		for _, v := range []string{"treemap", "sunburst", "circlepack"} {
			out = append(out, g.viewReq("model", "/api/model/"+v+q, d.URL, "application/json"))
		}
		for _, c := range d.classes {
			qc := url.QueryEscape(c)
			out = append(out,
				g.viewReq("class", "/api/class"+q+"&class="+qc, d.URL, "application/json"),
				g.viewReq("view", "/view/bundle"+q+"&focus="+qc, d.URL, "image/svg+xml"))
		}
	}
	return out
}

// shared returns a stream over list that several connections draw from
// in turn; it returns nil once list is used up.
func shared(list []*request) func() *request {
	var mu sync.Mutex
	next := 0
	return func() *request {
		mu.Lock()
		defer mu.Unlock()
		if next == len(list) {
			return nil
		}
		next++
		return list[next-1]
	}
}

// stream returns n requests in session order with writes mixed in.
func (g *sessionGen) stream(n int) []*request {
	var out []*request
	for len(out) < n {
		for _, r := range g.session(nil) {
			// writes come at a fixed spacing, so every phase of a run
			// carries the same number of them
			if g.untilWrite--; g.untilWrite <= 0 {
				g.untilWrite = writeEvery
				out = append(out, g.updateReq())
			}
			out = append(out, r)
		}
	}
	return out[:n]
}

// poissonDue returns n seeded Poisson arrival offsets at rate/s,
// conditioned on the n-th arriving at n/rate seconds: the exponential
// gaps are rescaled to that span. Every phase then offers exactly its
// rate, and throughput figures do not wander with the arrival count.
func poissonDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	gaps := make([]float64, n)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	scale := float64(n) / rate / sum * float64(time.Second)
	due := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g
		due[i] = time.Duration(t * scale)
	}
	return due
}

// exploreSetup starts `hbold serve` on a fresh data dir.
func exploreSetup(o *options, i int) (*child, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("serve-%d", i))
	return startChild(o.hbold, filepath.Join(o.work, "serve.log"), "/api/datasets", 170*time.Second,
		"serve", "-data-dir", freshDir(dir), "-readonly=false")
}

// phase is one fixed-rate open-loop phase of explore.
type phase struct {
	rate    float64
	t       *tally
	elapsed float64
}

// passes reports whether the phase met the latency limit at the
// workload's tail percentile without a growing backlog.
func (p *phase) passes() bool {
	if len(p.t.late) == 0 || p.t.failed > 0 {
		return false
	}
	n := len(p.t.late)
	lastTenth := samples(p.t.late[n-n/10:])
	return p.t.reads.tail(tailPercentile["explore"]) <= exploreLimitMS && lastTenth.p50() <= exploreLimitMS
}

// runExplore is the explore workload: `hbold serve` with its demo corpus
// under seeded Poisson arrivals of browse sessions at three fixed rates.
func runExplore(ctx context.Context, o *options, res *result) error {
	su, err := setupRepeated(ctx, o.setupReps, func(i int) (*child, error) { return exploreSetup(o, i) })
	if err != nil {
		return err
	}
	c := su.c
	defer c.kill()
	cat, err := fetchCatalog(c.base)
	if err != nil {
		return err
	}
	floor := &etagFloor{max: map[string]uint64{}}
	g := newSessionGen(cat, o.seed, floor)
	rng := rand.New(rand.NewSource(o.seed ^ 0xa11))
	warm := newTally()
	crawl := shared(g.crawl())
	closedLoop(ctx, c.base, time.Hour, exploreLimitMS, warm, crawl, crawl)
	res.absorb(warm)
	stopSpin, err := keepCPUsAwake()
	if err != nil {
		return err
	}
	defer stopSpin()
	// warm-up at the middle rate: connections open, the recurring
	// summary-graph subsets are cached
	wn := int(exploreRates[1] * exploreWarmup(o).Seconds())
	openLoop(c.base, 2, g.stream(wn), poissonDue(rng, wn, exploreRates[1]), exploreLimitMS, newTally())
	wb0 := c.writeBytes()
	// the middle rate, which the latency figures come from, gets most of
	// the window; the outer two only decide goodput
	shares := []float64{0.1, 0.8, 0.1}
	var phases []*phase
	for i, rate := range exploreRates {
		n := int(math.Round(rate * shares[i] * o.dur.Seconds()))
		p := &phase{rate: rate, t: newTally()}
		t0 := time.Now()
		openLoop(c.base, 2, g.stream(n), poissonDue(rng, n, rate), exploreLimitMS, p.t)
		p.elapsed = time.Since(t0).Seconds()
		phases = append(phases, p)
		res.absorb(p.t)
	}
	stopSpin()
	if !c.alive() {
		t := newTally()
		t.fail("serve died during the run: " + tailFile(c.log.Name()))
		res.absorb(t)
	}
	mid := phases[1]
	res.e2e(su.setupS, mid.t, mid.elapsed, su.rssMB(), o.workload)
	// goodput: in-limit completions per second at the highest passing
	// rate (the lowest rate when none passes)
	best := phases[0]
	for _, p := range phases {
		if p.passes() {
			best = p
		}
	}
	res.extra.set("goodput_rps", "1/s", float64(best.t.inLimit)/best.elapsed)
	var writes samples
	for _, p := range phases {
		writes = append(writes, p.t.writes...)
	}
	el := 0.0
	for _, p := range phases {
		el += p.elapsed
	}
	if len(writes) > 0 {
		res.extra.set("write_p50_ms", "ms", writes.p50())
		res.extra.set("write_tail_ms", "ms", writes.tail(tailPct(len(writes))))
		res.extra.set("write_ops_per_s", "1/s", float64(len(writes))/el)
		res.extra.set("write_amp", "x", (c.writeBytes()-wb0)/float64(g.ackNT.Load()))
	}
	for i, p := range phases {
		res.extra.set(fmt.Sprintf("explore.rate%d.tail_ms", i+1), "ms", p.t.reads.tail(tailPercentile["explore"]))
		res.extra.set(fmt.Sprintf("explore.rate%d.late_p99_ms", i+1), "ms", samples(p.t.late).quantile(0.99))
	}
	return nil
}
