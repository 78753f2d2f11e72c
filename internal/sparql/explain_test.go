package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestExplainRowsMatchExec is the contract the EXPLAIN surface rests on:
// the profiled execution is the real execution, so the profile's row
// counts must equal what the same query actually returns — for every
// query shape the staged pipeline covers.
func TestExplainRowsMatchExec(t *testing.T) {
	st := fixtureStore(t)
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person }`,
		`PREFIX ex: <http://ex/> SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?c }`,
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p ex:age ?a FILTER(?a > 28) }`,
		`PREFIX ex: <http://ex/> SELECT ?p ?e WHERE { ?p a ex:Person OPTIONAL { ?e ex:organizedBy ?p } }`,
		`PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Event } }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?o WHERE { ?s ex:knows ?o }`,
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a`,
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person } LIMIT 2`,
		`PREFIX ex: <http://ex/> SELECT (COUNT(?p) AS ?n) WHERE { ?p a ex:Person }`,
	}
	for _, text := range queries {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%s): %v", text, err)
		}
		res, err := q.Exec(st)
		if err != nil {
			t.Fatalf("Exec(%s): %v", text, err)
		}
		// Explain must not disturb later executions; run it between two
		// real ones and compare all three
		exp, err := q.Explain(st)
		if err != nil {
			t.Fatalf("Explain(%s): %v", text, err)
		}
		res2, err := q.Exec(st)
		if err != nil {
			t.Fatalf("re-Exec(%s): %v", text, err)
		}
		if len(res2.Rows) != len(res.Rows) {
			t.Errorf("%s: Exec after Explain returned %d rows, first Exec %d", text, len(res2.Rows), len(res.Rows))
		}
		if exp.Rows != len(res.Rows) {
			t.Errorf("%s: explain rows = %d, exec rows = %d", text, exp.Rows, len(res.Rows))
		}
		if exp.Plan == nil {
			t.Errorf("%s: no plan tree", text)
			continue
		}
		if len(exp.Stages) == 0 {
			t.Errorf("%s: no stages", text)
			continue
		}
		last := exp.Stages[len(exp.Stages)-1]
		if last.RowsOut != int64(exp.Rows) {
			t.Errorf("%s: last stage %q rowsOut = %d, want %d", text, last.Name, last.RowsOut, exp.Rows)
		}
		if exp.Stages[0].Name != "where" {
			t.Errorf("%s: first stage = %q, want where", text, exp.Stages[0].Name)
		}
	}
}

// TestExplainAsk checks the non-SELECT forms report their row semantics.
func TestExplainAsk(t *testing.T) {
	st := fixtureStore(t)
	q, err := Parse(`PREFIX ex: <http://ex/> ASK { ex:alice ex:knows ex:bob }`)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := q.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Form != "ASK" || exp.Rows != 1 {
		t.Fatalf("form = %s rows = %d, want ASK 1", exp.Form, exp.Rows)
	}
}

// TestExplainPlanAnnotations checks that the plan tree carries per-node
// traffic: a two-pattern join must show the greedy order and the second
// pattern seeing the first one's output as input.
func TestExplainPlanAnnotations(t *testing.T) {
	st := fixtureStore(t)
	q, err := Parse(`PREFIX ex: <http://ex/> SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:age ?g }`)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := q.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	var pats []*ExplainNode
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		if n.Kind == "pattern" {
			pats = append(pats, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(exp.Plan)
	if len(pats) != 2 {
		t.Fatalf("patterns in plan = %d, want 2", len(pats))
	}
	orders := map[int]bool{}
	for _, p := range pats {
		if p.Detail == "" {
			t.Errorf("pattern without rendered detail: %+v", p)
		}
		if p.Calls == 0 {
			t.Errorf("pattern never invoked: %+v", p)
		}
		orders[p.Order] = true
	}
	if !orders[1] || !orders[2] {
		t.Fatalf("greedy order positions = %v, want {1,2}", orders)
	}
}

// TestExplainOptionalCountsAccumulate: an OPTIONAL inner pattern runs
// once per outer row, and its row counts accumulate across those calls —
// five subjects with three ?v each must show 5 calls and 15 rows out,
// not the last call's 3.
func TestExplainOptionalCountsAccumulate(t *testing.T) {
	st := store.New()
	p, q := rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/q")
	for i := 0; i < 5; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		st.AddSPO(s, p, rdf.NewIRI(fmt.Sprintf("http://ex/x%d", i)))
		for j := 0; j < 3; j++ {
			st.AddSPO(s, q, rdf.NewInteger(int64(j)))
		}
	}
	exp, err := MustParse(`SELECT ?s ?x ?v WHERE { ?s <http://ex/p> ?x OPTIONAL { ?s <http://ex/q> ?v } }`).Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Rows != 15 {
		t.Fatalf("rows = %d, want 15", exp.Rows)
	}
	var inner, opt *ExplainNode
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		switch {
		case n.Kind == "optional":
			opt = n
		case n.Kind == "pattern" && strings.Contains(n.Detail, "http://ex/q"):
			inner = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(exp.Plan)
	if inner == nil || opt == nil {
		t.Fatalf("plan lacks the optional or its inner pattern: %+v", exp.Plan)
	}
	if inner.Calls != 5 || inner.RowsIn != 5 || inner.RowsOut != 15 {
		t.Errorf("inner pattern calls=%d in=%d out=%d, want 5/5/15", inner.Calls, inner.RowsIn, inner.RowsOut)
	}
	if opt.Calls != 5 || opt.RowsOut != 15 {
		t.Errorf("optional calls=%d out=%d, want 5/15", opt.Calls, opt.RowsOut)
	}
	if g := opt.Children[0]; g.Kind != "group" || g.Calls != 5 || g.RowsOut != 15 {
		t.Errorf("optional's group kind=%s calls=%d out=%d, want group/5/15", g.Kind, g.Calls, g.RowsOut)
	}
}

// TestExplainStagesNameServedOperator: for each query shape of the
// SPARQL read benchmark, the stages name the operator the served stream
// runs, and the last stage's rowsOut equals the rows Stream serves.
func TestExplainStagesNameServedOperator(t *testing.T) {
	st := fixtureStore(t)
	cases := []struct {
		query  string
		stages string
	}{
		{`SELECT ?p ?o WHERE { <http://ex/alice> ?p ?o }`, "where window project"},
		{`SELECT ?x ?y WHERE { ?x a <http://ex/Person> . ?x <http://ex/knows> ?y }`, "where window project"},
		{`SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }`, "where distinct window project"},
		{`SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x <http://ex/knows> ?y } GROUP BY ?y`, "where hash-group window"},
		{`SELECT ?x ?v WHERE { ?x <http://ex/age> ?v } ORDER BY DESC(?v) LIMIT 2`, "where top-k window project"},
		{`SELECT ?x WHERE { ?x a <http://ex/Person> }`, "where window project"},
		{`SELECT ?x ?v WHERE { ?x <http://ex/age> ?v } ORDER BY DESC(?v)`, "where order-by window project"},
		{`SELECT ?y (GROUP_CONCAT(?x) AS ?n) WHERE { ?x <http://ex/knows> ?y } GROUP BY ?y`, "where aggregate window"},
	}
	for _, c := range cases {
		q := MustParse(c.query)
		exp, err := q.Explain(st)
		if err != nil {
			t.Fatalf("Explain(%s): %v", c.query, err)
		}
		var names []string
		for _, s := range exp.Stages {
			names = append(names, s.Name)
		}
		if got := strings.Join(names, " "); got != c.stages {
			t.Errorf("%s: stages %q, want %q", c.query, got, c.stages)
		}
		rs, err := q.Stream(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		for range rs.All() {
			served++
		}
		if last := exp.Stages[len(exp.Stages)-1]; last.RowsOut != int64(served) || served == 0 {
			t.Errorf("%s: last stage %q rowsOut = %d, served %d", c.query, last.Name, last.RowsOut, served)
		}
		for i := 0; i+1 < len(exp.Stages); i++ {
			if exp.Stages[i].RowsOut != exp.Stages[i+1].RowsIn {
				t.Errorf("%s: stage %q rowsOut = %d, next stage rowsIn = %d", c.query, exp.Stages[i].Name, exp.Stages[i].RowsOut, exp.Stages[i+1].RowsIn)
			}
		}
	}
}
