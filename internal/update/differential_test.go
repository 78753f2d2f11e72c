package update_test

// Differential fuzz over the mutation path: the same seeded random
// update stream (synth.UpdateGen) applies to an empty memory tier and an
// empty disk tier. After every step the two deltas must be identical;
// periodically a query battery runs on the engine and the term-space
// reference on both tiers and every answer must agree; at the end the full materialized triple sets must
// be equal. Any divergence — in incremental posting maintenance, WAL
// replay, tombstone handling, or engine semantics over deleted data —
// surfaces as a seed+step reproducible failure.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
	"repro/internal/update"
)

// fuzzBattery probes the fuzz vocabulary from several angles.
var fuzzBattery = []string{
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p`,
	`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY ?c`,
	`SELECT ?s WHERE { ?s <http://fuzz/p1> ?o . ?o a ?c } ORDER BY ?s`,
	`SELECT ?s ?o WHERE { ?s <http://fuzz/p0> ?o FILTER(isLiteral(?o)) } ORDER BY ?s ?o`,
}

// resultKey flattens a result into a comparable string.
func resultKey(res *sparql.Result) string {
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, v := range res.Vars {
			if term, ok := row[v]; ok {
				sb.WriteString(term.String())
			}
			sb.WriteByte('\t')
		}
		lines = append(lines, sb.String())
	}
	return strings.Join(lines, "\n")
}

// engineAnswers evaluates query on st through the engine (Stream,
// collected) and the term-space reference, and fails if they disagree.
func engineAnswers(t *testing.T, st store.Queryable, query string) string {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := q.Stream(context.Background(), st)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	engine, err := rs.Collect()
	if err != nil {
		t.Fatalf("engine collect: %v", err)
	}
	reference, err := q.ExecReference(st)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	e, r := resultKey(engine), resultKey(reference)
	if e != r {
		t.Fatalf("engine and reference disagree on %q:\nengine:\n%s\nreference:\n%s", query, e, r)
	}
	return e
}

// materialize returns the sorted triple set of a backend.
func materialize(t *testing.T, be store.Backend) []string {
	t.Helper()
	var out []string
	be.Match(store.Pattern{}, func(tr rdf.Triple) bool {
		out = append(out, tr.String())
		return true
	})
	sort.Strings(out)
	return out
}

func TestDifferentialUpdateFuzz(t *testing.T) {
	const steps = 120
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mem := store.New()
			dir := t.TempDir()
			ds, err := disk.Open(dir, disk.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()

			gen := synth.NewUpdateGen(seed)
			ctx := context.Background()
			for i := 0; i < steps; i++ {
				text := gen.Update()
				dm, err := update.ApplyText(ctx, mem, text)
				if err != nil {
					t.Fatalf("step %d (memory) %q: %v", i, text, err)
				}
				dd, err := update.ApplyText(ctx, ds, text)
				if err != nil {
					t.Fatalf("step %d (disk) %q: %v", i, text, err)
				}
				if len(dm.Added) != len(dd.Added) || len(dm.Removed) != len(dd.Removed) {
					t.Fatalf("step %d %q: deltas diverge: memory +%d/-%d, disk +%d/-%d",
						i, text, len(dm.Added), len(dm.Removed), len(dd.Added), len(dd.Removed))
				}
				if mem.Len() != ds.Len() {
					t.Fatalf("step %d %q: memory %d triples, disk %d", i, text, mem.Len(), ds.Len())
				}
				if i%20 == 19 {
					for _, q := range fuzzBattery {
						if m, d := engineAnswers(t, mem, q), engineAnswers(t, ds, q); m != d {
							t.Fatalf("step %d: tiers disagree on %q:\nmemory:\n%s\ndisk:\n%s", i, q, m, d)
						}
					}
				}
			}

			// the final states must be triple-for-triple identical
			sm, sd := materialize(t, mem), materialize(t, ds)
			if len(sm) != len(sd) {
				t.Fatalf("final sizes diverge: memory %d, disk %d", len(sm), len(sd))
			}
			for i := range sm {
				if sm[i] != sd[i] {
					t.Fatalf("final sets diverge at %d: memory %q, disk %q", i, sm[i], sd[i])
				}
			}

			// and a restart of the disk tier replays to the same state
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := disk.Open(dir, disk.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if sr := materialize(t, re); len(sr) != len(sm) {
				t.Fatalf("restarted disk tier has %d triples, want %d", len(sr), len(sm))
			}
		})
	}
}
