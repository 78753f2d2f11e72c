package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rdf"
)

// Live-write namespace: the writer only touches subjects and predicates
// of its own, so the read mix's oracle answers stay valid while writes
// land beside them in the same store.
const (
	liveNS    = "http://live.bench.example.org/"
	livePreds = 4
)

func livePred(i int) string { return fmt.Sprintf("%sp%d", liveNS, i) }

// shadow is the writer's model of the acknowledged live triples.
type shadow struct {
	list []rdf.Triple
	pos  map[rdf.Triple]int
	bySu map[string][]rdf.Triple // live subject → its triples (may hold stale ones)
}

func newShadow() *shadow {
	return &shadow{pos: map[rdf.Triple]int{}, bySu: map[string][]rdf.Triple{}}
}

func (s *shadow) add(t rdf.Triple) bool {
	if _, ok := s.pos[t]; ok {
		return false
	}
	s.pos[t] = len(s.list)
	s.list = append(s.list, t)
	s.bySu[t.S.Value] = append(s.bySu[t.S.Value], t)
	return true
}

func (s *shadow) remove(t rdf.Triple) bool {
	i, ok := s.pos[t]
	if !ok {
		return false
	}
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, t)
	return true
}

// subjectTriples returns the live triples of one subject.
func (s *shadow) subjectTriples(su string) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range s.bySu[su] {
		if _, ok := s.pos[t]; ok {
			out = append(out, t)
		}
	}
	return out
}

// checksum is the order-insensitive checksum of the live triples.
func (s *shadow) checksum() answer {
	rows := make([][]string, len(s.list))
	for i, t := range s.list {
		rows[i] = []string{t.S.Value, t.P.Value, t.O.Value}
	}
	return answerOf(rows, false)
}

// writeGen produces the writer's seeded update sequence: mostly 1–4
// triple INSERT DATA / DELETE DATA / DELETE WHERE edits, with a batch
// insert every so often so the kv memtable fills, flushes and compacts.
type writeGen struct {
	d       *dataset
	rng     *rand.Rand
	sh      *shadow
	nextSub int
	prefix  string // keeps two writers' subjects apart
	batch   int    // triples per batch insert
	n       int    // updates drawn so far
}

func newWriteGen(d *dataset, seed int64, prefix string, batch int) *writeGen {
	return &writeGen{d: d, rng: rand.New(rand.NewSource(seed ^ 0x3717e)), sh: newShadow(), prefix: prefix, batch: batch}
}

// update is one write request plus the delta it must report and the
// shadow change to make once it is acknowledged.
type liveUpdate struct {
	text             string
	added, removed   []rdf.Triple
	wantAdd, wantRem int
}

// newTriple makes the k-th triple (k < livePreds) of a fresh subject;
// each uses its own predicate, so the triples of an insert are distinct.
func (g *writeGen) newTriple(sub string, k int) rdf.Triple {
	p := rdf.NewIRI(livePred(k))
	var o rdf.Term
	if g.rng.Intn(2) == 0 {
		o = rdf.NewLiteral(fmt.Sprintf("w%d", g.rng.Intn(1<<30)))
	} else {
		o = rdf.NewIRI(g.d.subjects[g.rng.Intn(len(g.d.subjects))])
	}
	return rdf.NewTriple(rdf.NewIRI(sub), p, o)
}

func (g *writeGen) freshSubject() string {
	g.nextSub++
	return fmt.Sprintf("%s%ss%d", liveNS, g.prefix, g.nextSub)
}

func dataBlock(verb string, ts []rdf.Triple) string {
	var b strings.Builder
	b.WriteString(verb)
	b.WriteString(" DATA {\n")
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	b.WriteString("}")
	return b.String()
}

// next draws the next update against the current shadow.
func (g *writeGen) next() liveUpdate {
	g.n++
	x := g.rng.Float64()
	switch {
	case g.n%batchEvery == 0: // batch insert, at a fixed spacing
		return g.batchInsert(g.batch)
	case x < 0.55 || len(g.sh.list) < 8: // small insert
		sub := g.freshSubject()
		ts := make([]rdf.Triple, 1+g.rng.Intn(livePreds))
		for k := range ts {
			ts[k] = g.newTriple(sub, k)
		}
		return g.insert(ts)
	case x < 0.85: // DELETE DATA of live triples
		n := 1 + g.rng.Intn(4)
		seen := map[rdf.Triple]bool{}
		var ts []rdf.Triple
		for len(ts) < n {
			t := g.sh.list[g.rng.Intn(len(g.sh.list))]
			if !seen[t] {
				seen[t] = true
				ts = append(ts, t)
			}
		}
		return liveUpdate{text: dataBlock("DELETE", ts), removed: ts, wantRem: len(ts)}
	default: // DELETE WHERE on one live subject
		t := g.sh.list[g.rng.Intn(len(g.sh.list))]
		ts := g.sh.subjectTriples(t.S.Value)
		return liveUpdate{text: fmt.Sprintf("DELETE WHERE { <%s> ?p ?o }", t.S.Value), removed: ts, wantRem: len(ts)}
	}
}

// batchInsert inserts n triples over fresh subjects.
func (g *writeGen) batchInsert(n int) liveUpdate {
	var ts []rdf.Triple
	for len(ts) < n {
		sub := g.freshSubject()
		for k := 0; k < livePreds && len(ts) < n; k++ {
			ts = append(ts, g.newTriple(sub, k))
		}
	}
	return g.insert(ts)
}

func (g *writeGen) insert(ts []rdf.Triple) liveUpdate {
	return liveUpdate{text: dataBlock("INSERT", ts), added: ts, wantAdd: len(ts)}
}

// ack applies an acknowledged update to the shadow and returns the
// N-Triples bytes of its net delta.
func (g *writeGen) ack(u liveUpdate) int {
	n := 0
	for _, t := range u.added {
		if g.sh.add(t) {
			n += len(t.String()) + 1
		}
	}
	for _, t := range u.removed {
		if g.sh.remove(t) {
			n += len(t.String()) + 1
		}
	}
	return n
}
