package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// answer is the oracle's expectation for one query instance: the row
// count and a checksum over the rows, order-insensitive unless ordered.
type answer struct {
	rows    int
	sum     uint64
	ordered bool
}

func rowHash(vals []string) uint64 {
	h := fnv.New64a()
	for i, v := range vals {
		if i > 0 {
			h.Write([]byte{0x1f})
		}
		h.Write([]byte(v))
	}
	return h.Sum64()
}

// fold adds one row hash to a running checksum: a plain sum (multiset,
// order-insensitive) or an order-sensitive chain.
func fold(acc, h uint64, ordered bool) uint64 {
	if ordered {
		return acc*1099511628211 ^ h
	}
	return acc + h
}

func answerOf(rows [][]string, ordered bool) answer {
	a := answer{rows: len(rows), ordered: ordered}
	for _, r := range rows {
		a.sum = fold(a.sum, rowHash(r), ordered)
	}
	return a
}

// sparqlQuery is one generated query instance.
type sparqlQuery struct {
	shape  string
	text   string
	format string // json, csv, xml or tsv
	want   answer
}

// shapes of the read mix and their weights. Latency bands are ordered
// lookup < topk < distinct/agg < join < scan; the weights keep the
// median inside the join band, away from any boundary between shapes.
var shapeWeights = []struct {
	name string
	w    float64
}{
	{"lookup", 0.26}, {"topk", 0.06}, {"distinct", 0.06}, {"agg", 0.06}, {"join", 0.42}, {"scan", 0.14},
}

var formatWeights = []struct {
	name   string
	accept string
	w      float64
}{
	{"json", "application/sparql-results+json", 0.55},
	{"csv", "text/csv", 0.15},
	{"xml", "application/sparql-results+xml", 0.15},
	{"tsv", "text/tab-separated-values", 0.15},
}

func acceptOf(format string) string {
	for _, f := range formatWeights {
		if f.name == format {
			return f.accept
		}
	}
	return ""
}

// queryGen draws the seeded read mix over a dataset. Parameters are
// drawn Zipf from pools ordered by ascending size, so cheap instances
// repeat often and large ones form a unique tail.
type queryGen struct {
	d     *dataset
	rng   *rand.Rand
	cache map[string]answer
	// zipf draws per pool
	zScan, zRel, zAttr, zSubj *rand.Zipf
	scanPool                  []string
	joinPool                  []rel
}

func newQueryGen(d *dataset, seed int64) *queryGen {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	g := &queryGen{d: d, rng: rng, cache: map[string]answer{}}
	// scans and joins stay within mid-sized classes so one query's cost
	// does not swamp the mix
	for _, c := range d.classes {
		if n := len(d.inst[c]); n >= 100 && n <= 1500 {
			g.scanPool = append(g.scanPool, c)
		}
	}
	for _, r := range d.rels {
		if n := len(d.inst[r.domain]); n >= 50 && n <= 600 {
			g.joinPool = append(g.joinPool, r)
		}
	}
	z := func(n int) *rand.Zipf { return rand.NewZipf(rng, 1.1, 2, uint64(n-1)) }
	g.zScan = z(len(g.scanPool))
	g.zRel = z(len(g.joinPool))
	g.zAttr = z(len(d.attrs))
	g.zSubj = z(len(d.subjects))
	return g
}

func (g *queryGen) pick(weights []float64) int {
	x := g.rng.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

func (g *queryGen) shape() string {
	ws := make([]float64, len(shapeWeights))
	for i, s := range shapeWeights {
		ws[i] = s.w
	}
	return shapeWeights[g.pick(ws)].name
}

func (g *queryGen) format() string {
	ws := make([]float64, len(formatWeights))
	for i, f := range formatWeights {
		ws[i] = f.w
	}
	return formatWeights[g.pick(ws)].name
}

// next draws one query of the given shape (random when empty).
func (g *queryGen) next(shape string) sparqlQuery {
	if shape == "" {
		shape = g.shape()
	}
	q := sparqlQuery{shape: shape, format: g.format()}
	switch shape {
	case "lookup":
		s := g.d.subjects[g.zSubj.Uint64()]
		q.text = fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", s)
	case "join":
		r := g.joinPool[g.zRel.Uint64()]
		q.text = fmt.Sprintf("SELECT ?x ?y WHERE { ?x a <%s> . ?x <%s> ?y }", r.domain, r.pred)
	case "distinct":
		r := g.joinPool[g.zRel.Uint64()]
		q.text = fmt.Sprintf("SELECT DISTINCT ?y WHERE { ?x <%s> ?y }", r.pred)
	case "agg":
		r := g.joinPool[g.zRel.Uint64()]
		q.text = fmt.Sprintf("SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x <%s> ?y } GROUP BY ?y", r.pred)
	case "topk":
		a := g.d.attrs[g.zAttr.Uint64()]
		q.text = fmt.Sprintf("SELECT ?x ?v WHERE { ?x <%s> ?v } ORDER BY DESC(?v) LIMIT 10", a)
	case "scan":
		c := g.scanPool[g.zScan.Uint64()]
		q.text = fmt.Sprintf("SELECT ?x WHERE { ?x a <%s> }", c)
	}
	if a, ok := g.cache[q.text]; ok {
		q.want = a
	} else {
		q.want = g.d.oracle(shape, q.text)
		g.cache[q.text] = q.want
	}
	return q
}

// oracle evaluates one generated query over the plain-map indexes. It
// recovers the parameters from the query text the generator built.
func (d *dataset) oracle(shape, text string) answer {
	iris := irisIn(text)
	var rows [][]string
	switch shape {
	case "lookup":
		for _, po := range d.out[iris[0]] {
			rows = append(rows, []string{canon(po[0]), canon(po[1])})
		}
	case "join":
		class, pred := iris[0], iris[1]
		for _, so := range d.byPred[pred] {
			if d.isA(so[0].Value, class) {
				rows = append(rows, []string{canon(so[0]), canon(so[1])})
			}
		}
	case "distinct":
		seen := map[string]bool{}
		for _, so := range d.byPred[iris[0]] {
			if !seen[so[1].Value] {
				seen[so[1].Value] = true
				rows = append(rows, []string{canon(so[1])})
			}
		}
	case "agg":
		n := map[string]int{}
		for _, so := range d.byPred[iris[0]] {
			n[so[1].Value]++
		}
		for y, c := range n {
			rows = append(rows, []string{y, strconv.Itoa(c)})
		}
	case "topk":
		pairs := append([][2]rdf.Term(nil), d.byPred[iris[0]]...)
		sort.SliceStable(pairs, func(i, j int) bool { return pairs[i][1].Value > pairs[j][1].Value })
		if len(pairs) > 10 {
			pairs = pairs[:10]
		}
		for _, so := range pairs {
			rows = append(rows, []string{canon(so[0]), canon(so[1])})
		}
		return answerOf(rows, true)
	case "scan":
		for _, s := range d.inst[iris[0]] {
			rows = append(rows, []string{s})
		}
	}
	return answerOf(rows, false)
}

func (d *dataset) isA(s, class string) bool {
	for _, po := range d.out[s] {
		if po[0].Value == typePred && po[1].Value == class {
			return true
		}
	}
	return false
}

// irisIn lists the <...> IRIs of a query text in order.
func irisIn(text string) []string {
	var out []string
	for {
		i := strings.IndexByte(text, '<')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(text[i:], '>')
		out = append(out, text[i+1:i+j])
		text = text[i+j+1:]
	}
}

// protocolRequest turns a query into a SPARQL protocol GET against
// sparqld, with the answer check attached.
func protocolRequest(q sparqlQuery) *request {
	want := q.want
	format := q.format
	return &request{
		method: "GET",
		path:   "/?query=" + url.QueryEscape(q.text),
		accept: acceptOf(format),
		kind:   q.shape,
		check: func(rep *reply) error {
			rows, err := parseResults(format, rep.body)
			if err != nil {
				return err
			}
			got := answerOf(rows, want.ordered)
			if got.rows != want.rows || got.sum != want.sum {
				return fmt.Errorf("wrong answer: %d rows (sum %x), want %d (sum %x)", got.rows, got.sum, want.rows, want.sum)
			}
			return nil
		},
	}
}

// parseResults decodes a SELECT results document into rows of canonical
// values in head-variable order.
func parseResults(format string, body []byte) ([][]string, error) {
	switch format {
	case "json":
		return parseJSON(body)
	case "csv":
		return parseCSV(body)
	case "tsv":
		return parseTSV(body)
	case "xml":
		return parseXML(body)
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

func parseJSON(body []byte) ([][]string, error) {
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("json results: %w", err)
	}
	rows := make([][]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		row := make([]string, len(doc.Head.Vars))
		for i, v := range doc.Head.Vars {
			row[i] = b[v].Value
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func parseCSV(body []byte) ([][]string, error) {
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv results: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("csv results: no header")
	}
	return recs[1:], nil
}

func parseTSV(body []byte) ([][]string, error) {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "?") {
		return nil, fmt.Errorf("tsv results: no header")
	}
	rows := make([][]string, 0, len(lines)-1)
	for _, ln := range lines[1:] {
		fs := strings.Split(ln, "\t")
		for i, f := range fs {
			fs[i] = tsvValue(f)
		}
		rows = append(rows, fs)
	}
	return rows, nil
}

var tsvUnescaper = strings.NewReplacer(`\\`, "\\", `\t`, "\t", `\n`, "\n", `\r`, "\r", `\"`, `"`)

// tsvValue strips TSV's term syntax down to the canonical value.
func tsvValue(f string) string {
	switch {
	case strings.HasPrefix(f, "<") && strings.HasSuffix(f, ">"):
		return f[1 : len(f)-1]
	case strings.HasPrefix(f, `"`):
		end := strings.LastIndexByte(f, '"')
		if end <= 0 {
			return f
		}
		return tsvUnescaper.Replace(f[1:end])
	}
	return f
}

func parseXML(body []byte) ([][]string, error) {
	var doc struct {
		Vars []struct {
			Name string `xml:"name,attr"`
		} `xml:"head>variable"`
		Results []struct {
			Bindings []struct {
				Name    string `xml:"name,attr"`
				URI     string `xml:"uri"`
				Literal string `xml:"literal"`
				BNode   string `xml:"bnode"`
			} `xml:"binding"`
		} `xml:"results>result"`
	}
	if err := xml.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("xml results: %w", err)
	}
	rows := make([][]string, 0, len(doc.Results))
	for _, r := range doc.Results {
		row := make([]string, len(doc.Vars))
		for _, b := range r.Bindings {
			for i, v := range doc.Vars {
				if v.Name == b.Name {
					row[i] = b.URI + b.Literal + b.BNode
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
