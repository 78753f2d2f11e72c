package main

import (
	"bufio"
	"os"
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/synth"
)

// dataset is the generated corpus served by the sparql workloads plus
// the plain-map indexes the answer oracle evaluates against. The oracle
// never calls the engine under test.
type dataset struct {
	st       *store.Store
	triples  int
	out      map[string][][2]rdf.Term // subject IRI → (predicate, object)
	byPred   map[string][][2]rdf.Term // predicate IRI → (subject, object)
	inst     map[string][]string      // class IRI → instance IRIs
	classes  []string                 // by ascending instance count
	rels     []rel                    // object properties, by ascending domain size
	attrs    []string                 // datatype properties, by ascending subject count
	subjects []string                 // instance IRIs, class-major in classes order
}

// rel is one object property with the class its subjects belong to.
type rel struct {
	pred, domain string
	links        int
}

const typePred = rdf.RDFType

// corpusSeed fixes the generated corpus: synth.DefaultSpec (40 classes,
// 20k instances) with this seed has 152,708 triples (17.6 MB of
// N-Triples). The workload seed drives the query and update streams
// only. Across generator seeds the triple count swings from about 124k
// to 180k, because object-property domains are drawn at random, and
// with it every query's cost and the disk tier's memtable fill after
// seeding: the seed, not the code, would dominate the spread.
const corpusSeed = 1

// newDataset generates the corpus and indexes it.
func newDataset() *dataset {
	d := &dataset{
		st:     synth.Generate(synth.DefaultSpec("bench", corpusSeed)),
		out:    map[string][][2]rdf.Term{},
		byPred: map[string][][2]rdf.Term{},
		inst:   map[string][]string{},
	}
	classOf := map[string]string{}
	d.st.Match(store.Pattern{}, func(t rdf.Triple) bool {
		d.triples++
		d.out[t.S.Value] = append(d.out[t.S.Value], [2]rdf.Term{t.P, t.O})
		d.byPred[t.P.Value] = append(d.byPred[t.P.Value], [2]rdf.Term{t.S, t.O})
		if t.P.Value == typePred {
			d.inst[t.O.Value] = append(d.inst[t.O.Value], t.S.Value)
			classOf[t.S.Value] = t.O.Value
		}
		return true
	})
	for c := range d.inst {
		d.classes = append(d.classes, c)
	}
	sort.Slice(d.classes, func(i, j int) bool {
		a, b := d.classes[i], d.classes[j]
		if len(d.inst[a]) != len(d.inst[b]) {
			return len(d.inst[a]) < len(d.inst[b])
		}
		return a < b
	})
	for p, pairs := range d.byPred {
		switch {
		case p == typePred:
		case pairs[0][1].IsIRI():
			d.rels = append(d.rels, rel{pred: p, domain: classOf[pairs[0][0].Value], links: len(pairs)})
		default:
			d.attrs = append(d.attrs, p)
		}
	}
	sort.Slice(d.rels, func(i, j int) bool {
		if d.rels[i].links != d.rels[j].links {
			return d.rels[i].links < d.rels[j].links
		}
		return d.rels[i].pred < d.rels[j].pred
	})
	sort.Slice(d.attrs, func(i, j int) bool {
		a, b := len(d.byPred[d.attrs[i]]), len(d.byPred[d.attrs[j]])
		if a != b {
			return a < b
		}
		return d.attrs[i] < d.attrs[j]
	})
	for _, c := range d.classes {
		d.subjects = append(d.subjects, d.inst[c]...)
	}
	return d
}

// writeNT writes the corpus as N-Triples (a Turtle subset, which is what
// sparqld loads).
func (d *dataset) writeNT(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	d.st.Match(store.Pattern{}, func(t rdf.Triple) bool {
		w.WriteString(t.String())
		w.WriteByte('\n')
		return true
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// canon is the format-independent rendering of one result value: an
// IRI's string or a literal's lexical form.
func canon(t rdf.Term) string { return t.Value }
