package sparql

// Engine micro-benchmarks. BenchmarkJoinInnerLoop drives the WHERE clause
// of a compiled plan through the streaming operators — no projection, no
// Result materialization — so its allocs/op number is the allocation
// cost of the join inner loop itself. With 16k rows joined per op, a
// two-digit allocs/op total means zero per-row allocations (the
// remainder is plan setup and the scratch levels); the reference twin
// allocates one map clone per candidate row.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// joinBenchStore is a two-hop graph: 1000 subjects → 4 mids each via p1,
// 800 mids → 4 leaves each via p2, so ?a p1 ?b . ?b p2 ?c yields 16000
// solutions.
func joinBenchStore() *store.Store {
	st := store.New()
	p1 := rdf.NewIRI("http://b/p1")
	p2 := rdf.NewIRI("http://b/p2")
	for i := 0; i < 1000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://b/s%d", i))
		for j := 0; j < 4; j++ {
			st.AddSPO(s, p1, rdf.NewIRI(fmt.Sprintf("http://b/m%d", (i*4+j)%800)))
		}
	}
	for i := 0; i < 800; i++ {
		m := rdf.NewIRI(fmt.Sprintf("http://b/m%d", i))
		for j := 0; j < 4; j++ {
			st.AddSPO(m, p2, rdf.NewIRI(fmt.Sprintf("http://b/l%d", (i*4+j)%500)))
		}
	}
	return st
}

const joinBenchQuery = `SELECT ?a ?b ?c WHERE { ?a <http://b/p1> ?b . ?b <http://b/p2> ?c }`

const joinBenchRows = 16000

// joinRows compiles q against st and counts the solutions its WHERE
// clause streams, without projecting them.
func joinRows(st store.Queryable, q *Query) (int, error) {
	p, err := q.compile(context.Background(), st)
	if err != nil {
		return 0, err
	}
	n := 0
	p.where(func([]store.ID) bool {
		n++
		return true
	})
	return n, p.err
}

func BenchmarkJoinInnerLoop(b *testing.B) {
	st := joinBenchStore()
	q := MustParse(joinBenchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := joinRows(st, q)
		if err != nil {
			b.Fatal(err)
		}
		if n != joinBenchRows {
			b.Fatalf("rows = %d, want %d", n, joinBenchRows)
		}
	}
}

func BenchmarkJoinInnerLoopReference(b *testing.B) {
	st := joinBenchStore()
	q := MustParse(joinBenchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &evaluator{st: st}
		sols := ev.evalGroup(q.Where, []Binding{{}})
		if len(sols) != joinBenchRows {
			b.Fatalf("rows = %d, want %d", len(sols), joinBenchRows)
		}
	}
}

// TestJoinInnerLoopAllocs gates the join inner loop on allocations,
// which, unlike timings, are the same on every machine: an index-scan
// callback that escapes to the heap once per outer row costs 0.25
// allocations per solution on this join.
func TestJoinInnerLoopAllocs(t *testing.T) {
	st := joinBenchStore()
	q := MustParse(joinBenchQuery)
	allocs := testing.AllocsPerRun(5, func() {
		n, err := joinRows(st, q)
		if err != nil || n != joinBenchRows {
			t.Fatalf("rows = %d (err %v), want %d", n, err, joinBenchRows)
		}
	})
	if perRow := allocs / joinBenchRows; perRow >= 0.05 {
		t.Fatalf("join allocates %.0f times per run, %.3f per row; want < 0.05 per row", allocs, perRow)
	}
}
