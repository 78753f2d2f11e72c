package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Latency limits (ms) a read must meet to count toward goodput.
const (
	readLimitMS = 100.0
	liveLimitMS = 500.0
)

// sparql-live's writes. Before timing, flushTriples inserted in
// flushChunk pieces (small enough that parsing one does not set the
// server's peak RSS) push the kv memtable (1.5 MiB after seeding) past
// its 4 MiB budget, so every run flushes once and, with a seventh
// segment, compacts once. Once the compaction is done, fillTriples more
// refill the memtable, because every read pays a Snapshot that copies
// it: read latency rises with the memtable's size, by about 2.7 ms per
// 1,000 triples on a 2-CPU 2.1 GHz Xeon. The timed writer then sends
// writeRate updates per second, every batchEvery-th a batchTriples
// insert: about 25 triples/s, so the memtable, and with it read latency,
// grows by under a tenth over a run. A faster writer made read latency a
// slope through the run, and the median depended on how far a run's
// writes had got.
const (
	flushTriples = 14000
	flushChunk   = 2000
	fillTriples  = 2000
	writeRate    = 2.0
	batchTriples = 40
	batchEvery   = 4
)

// paced sends next's requests no faster than rate per second.
func paced(rate float64, next func() *request) func() *request {
	var t0 time.Time
	i := 0
	return func() *request {
		if i == 0 {
			t0 = time.Now()
		}
		if d := time.Until(t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		i++
		return next()
	}
}

// readStream cycles through a pre-generated, oracle-checked query list.
func readStream(qs []sparqlQuery, offset int) func() *request {
	i := offset
	return func() *request {
		q := qs[i%len(qs)]
		i++
		return protocolRequest(q)
	}
}

// genQueries pre-generates n read queries (with their oracle answers)
// before anything is timed.
func genQueries(d *dataset, seed int64, n int) []sparqlQuery {
	g := newQueryGen(d, seed)
	qs := make([]sparqlQuery, n)
	for i := range qs {
		qs[i] = g.next("")
	}
	return qs
}

// prepareData generates the corpus for seed and writes it as N-Triples.
func prepareData(o *options) (*dataset, string, error) {
	d := newDataset()
	path := filepath.Join(o.work, "data.nt")
	if err := d.writeNT(path); err != nil {
		return nil, "", err
	}
	return d, path, nil
}

// runSparqlRead is the sparql-read workload: memory-tier sparqld under a
// closed loop of 2 reader connections.
func runSparqlRead(ctx context.Context, o *options, res *result) error {
	d, nt, err := prepareData(o)
	if err != nil {
		return err
	}
	qs := genQueries(d, o.seed, 20000)
	if o.corrupt {
		for i := 0; i < len(qs); i += 50 {
			qs[i].want.sum ^= 1
		}
	}
	su, err := setupRepeated(ctx, o.setupReps, func(i int) (*child, error) {
		return startChild(o.hbold, filepath.Join(o.work, "sparqld.log"), "/?query=ASK%7B%7D", 120*time.Second,
			"sparqld", "-quiet", nt)
	})
	if err != nil {
		return err
	}
	c := su.c
	defer c.kill()
	// warm-up: connections, heap and GC pacing settle before timing
	closedLoop(ctx, c.base, o.warmup, readLimitMS, newTally(), readStream(qs, 10000), readStream(qs, 15000))
	t := newTally()
	t0 := time.Now()
	closedLoop(ctx, c.base, o.dur, readLimitMS, t, readStream(qs, 0), readStream(qs, len(qs)/2))
	el := time.Since(t0).Seconds()
	if !c.alive() {
		t.fail("sparqld died during the run: " + tailFile(c.log.Name()))
	}
	res.absorb(t)
	res.e2e(su.setupS, t, el, su.rssMB(), o.workload)
	return nil
}

// runSparqlLive is the sparql-live workload: disk-tier sparqld with one
// reader connection running the read mix and one writer connection
// applying the seeded update sequence, then a crash-restart durability
// check.
func runSparqlLive(ctx context.Context, o *options, res *result) error {
	d, nt, err := prepareData(o)
	if err != nil {
		return err
	}
	qs := genQueries(d, o.seed, 5000)
	var dir string
	su, err := setupRepeated(ctx, o.setupReps, func(i int) (*child, error) {
		dir = filepath.Join(o.work, fmt.Sprintf("live-%d", i))
		os.RemoveAll(dir)
		args := []string{"sparqld", "-quiet", "-data-dir", dir, nt}
		if o.liveTier == "memory" {
			// the excluded configuration, kept runnable to reproduce
			// the memory tier's concurrent read/write crash
			args = []string{"sparqld", "-quiet", nt}
		}
		return startChild(o.hbold, filepath.Join(o.work, "sparqld.log"), "/?query=ASK%7B%7D", 170*time.Second, args...)
	})
	if err != nil {
		return err
	}
	c, setup := su.c, su.setupS
	defer func() { c.kill() }()
	wg := newWriteGen(d, o.seed, "", batchTriples)
	deltaBytes := 0
	wb0 := c.writeBytes()
	// untimed: the flush-and-compact insert, the memtable refill, then
	// reads to settle
	warm := newTally()
	w := newWire(c.base)
	insert := func(n int) {
		fr := liveWrite(wg, wg.batchInsert(n), &deltaBytes)
		warm.record(fr, w.do(fr, time.Now()), liveLimitMS)
	}
	for i := 0; i < flushTriples/flushChunk; i++ {
		insert(flushChunk)
	}
	if o.liveTier != "memory" {
		waitCompacted(dir, 60*time.Second)
	}
	insert(fillTriples)
	w.close()
	closedLoop(ctx, c.base, o.warmup, liveLimitMS, warm, readStream(qs, 1000))
	res.absorb(warm)
	writer := paced(writeRate, func() *request { return liveWrite(wg, wg.next(), &deltaBytes) })
	t := newTally()
	t0 := time.Now()
	closedLoop(ctx, c.base, o.dur, liveLimitMS, t, readStream(qs, 0), writer)
	el := time.Since(t0).Seconds()
	wb1 := c.writeBytes()
	if !c.alive() {
		t.fail("sparqld died during the run: " + tailFile(c.log.Name()))
	}
	liveTriples := d.triples + len(wg.sh.list)
	// the final count must equal the base corpus plus the shadow
	if err := checkStore(c.base, liveTriples, wg.sh); err != nil {
		t.fail("final state: " + err.Error())
	} else {
		t.attempted++
	}
	rss := su.rssMB()
	if o.liveTier == "memory" {
		res.absorb(t)
		res.e2e(setup, t, el, rss, o.workload)
		return nil
	}
	res.extra.set("bytes_per_triple", "B", float64(dirBytes(dir))/float64(liveTriples))
	if deltaBytes > 0 {
		res.extra.set("write_amp", "x", (wb1-wb0)/float64(deltaBytes))
	}
	// durability: SIGKILL, reopen from the data dir alone, and require
	// every acknowledged write
	c.kill()
	c2, err := startChild(o.hbold, filepath.Join(o.work, "reopen.log"), "/?query=ASK%7B%7D", 120*time.Second,
		"sparqld", "-quiet", "-data-dir", dir)
	if err != nil {
		t.fail("restart after SIGKILL: " + err.Error())
	} else {
		c = c2
		res.extra.set("restart_after_kill_ms", "ms", float64(c2.setup)/float64(time.Millisecond))
		if err := checkStore(c2.base, liveTriples, wg.sh); err != nil {
			t.fail("after restart: " + err.Error())
		} else {
			t.attempted++
		}
	}
	res.absorb(t)
	res.e2e(setup, t, el, rss, o.workload)
	return nil
}

// waitCompacted waits until the background compaction the flush insert
// started has merged the data dir's segments into one, so it does not
// overlap the timed window.
func waitCompacted(dir string, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		if len(segs) <= 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// liveWrite draws the writer's next update as a SPARQL protocol POST
// whose {"added","removed"} reply is checked against the shadow; an
// acknowledged update is applied to the shadow and its net N-Triples
// bytes added to *deltaBytes (when non-nil).
func liveWrite(wg *writeGen, u liveUpdate, deltaBytes *int) *request {
	return &request{
		method: "POST", path: "/", ctype: "application/sparql-update", body: u.text,
		kind: "update", write: true,
		check: func(rep *reply) error {
			var got struct{ Added, Removed int }
			if err := json.Unmarshal(rep.body, &got); err != nil {
				return fmt.Errorf("update reply: %w", err)
			}
			if got.Added != u.wantAdd || got.Removed != u.wantRem {
				return fmt.Errorf("update reply added=%d removed=%d, want %d/%d", got.Added, got.Removed, u.wantAdd, u.wantRem)
			}
			n := wg.ack(u)
			if deltaBytes != nil {
				*deltaBytes += n
			}
			return nil
		},
	}
}

// checkStore compares the served store with the expected total count
// and the shadow's live-triple checksum.
func checkStore(base string, want int, sh *shadow) error {
	w := newWire(base)
	defer w.close()
	count := sparqlQuery{text: "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", format: "tsv", shape: "count"}
	rep := w.do(protocolRequest(count), time.Now())
	if rep.err != nil || rep.status != 200 {
		return fmt.Errorf("count query failed: %v %d", rep.err, rep.status)
	}
	rows, err := parseTSV(rep.body)
	if err != nil || len(rows) != 1 {
		return fmt.Errorf("count query: bad reply %q", rep.body)
	}
	if n, _ := strconv.Atoi(rows[0][0]); n != want {
		return fmt.Errorf("COUNT(*) = %s, want %d", rows[0][0], want)
	}
	var all [][]string
	for i := 0; i < livePreds; i++ {
		p := livePred(i)
		q := fmt.Sprintf("SELECT ?s ?o WHERE { ?s <%s> ?o }", p)
		rep := w.do(&request{method: "GET", path: "/?query=" + url.QueryEscape(q), accept: acceptOf("tsv")}, time.Now())
		if rep.err != nil || rep.status != 200 {
			return fmt.Errorf("live scan failed: %v %d", rep.err, rep.status)
		}
		rows, err := parseTSV(rep.body)
		if err != nil {
			return err
		}
		for _, r := range rows {
			all = append(all, []string{r[0], p, r[1]})
		}
	}
	got, want2 := answerOf(all, false), sh.checksum()
	if got != want2 {
		return fmt.Errorf("live triples: %d (sum %x), shadow has %d (sum %x)", got.rows, got.sum, want2.rows, want2.sum)
	}
	return nil
}
