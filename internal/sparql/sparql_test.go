package sparql

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

const fixture = `
@prefix ex: <http://ex/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:alice a ex:Person ; rdfs:label "Alice" ; ex:age 30 ; ex:knows ex:bob, ex:carol .
ex:bob   a ex:Person ; rdfs:label "Bob"   ; ex:age 25 ; ex:knows ex:carol .
ex:carol a ex:Person ; rdfs:label "Carol" ; ex:age 35 .
ex:conf  a ex:Event  ; rdfs:label "EDBT"  ; ex:year 2020 ; ex:organizedBy ex:alice .
ex:ws    a ex:Event  ; rdfs:label "Workshop"@en ; ex:year 2019 .
`

func fixtureStore(t testing.TB) *store.Store {
	t.Helper()
	g, err := turtle.Parse(fixture)
	if err != nil {
		t.Fatal(err)
	}
	return store.FromGraph(g)
}

func exec(t testing.TB, st *store.Store, q string) *Result {
	t.Helper()
	res, err := Exec(st, q)
	if err != nil {
		t.Fatalf("Exec(%s): %v", q, err)
	}
	return res
}

func TestSelectSimple(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if len(res.Vars) != 1 || res.Vars[0] != "p" {
		t.Fatalf("vars = %v", res.Vars)
	}
}

func TestSelectStar(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:knows ?o }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
}

func TestJoinTwoPatterns(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?c }`)
	// alice knows bob (bob knows carol) → 1 row
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1: %v", len(res.Rows), res.Rows)
	}
	r := res.Rows[0]
	if r["a"].LocalName() != "alice" || r["b"].LocalName() != "bob" {
		t.Fatalf("row = %v", r)
	}
}

func TestRepeatedVariableUnification(t *testing.T) {
	st := store.New()
	a := rdf.NewIRI("http://ex/a")
	b := rdf.NewIRI("http://ex/b")
	p := rdf.NewIRI("http://ex/p")
	st.AddSPO(a, p, a) // self loop
	st.AddSPO(a, p, b)
	res := exec(t, st, `SELECT ?x WHERE { ?x <http://ex/p> ?x }`)
	if len(res.Rows) != 1 || res.Rows[0]["x"] != a {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFilterComparison(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p ex:age ?a FILTER(?a > 28) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestFilterRegex(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?s WHERE { ?s rdfs:label ?l FILTER regex(?l, "^A") }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestFilterRegexCaseInsensitive(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?s WHERE { ?s rdfs:label ?l FILTER regex(?l, "aLiCe", "i") }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestFilterOnIRIWithRegexStr(t *testing.T) {
	st := fixtureStore(t)
	// the Listing 1 idiom: regex over an IRI-valued variable
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?s WHERE { ?s a ex:Person FILTER regex(?s, "alice") }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestOptional(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } }`)
	// alice×2, bob×1, carol×1(unbound k)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	unbound := 0
	for _, r := range res.Rows {
		if _, ok := r["k"]; !ok {
			unbound++
		}
	}
	if unbound != 1 {
		t.Fatalf("unbound k rows = %d, want 1", unbound)
	}
}

func TestUnion(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Event } }`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
}

func TestMinus(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p a ex:Person MINUS { ?p ex:knows ex:carol } }`)
	// alice and bob know carol → only carol remains
	if len(res.Rows) != 1 || res.Rows[0]["p"].LocalName() != "carol" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBind(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?a2 WHERE { ?p ex:age ?a BIND(?a * 2 AS ?a2) }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if _, ok := r["a2"]; !ok {
			t.Fatalf("a2 unbound in %v", r)
		}
	}
}

func TestValuesInline(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?a WHERE { VALUES ?p { ex:alice ex:bob } ?p ex:age ?a }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestValuesMultiVarWithUndef(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?a WHERE { ?p ex:age ?a VALUES (?p ?a) { (ex:alice UNDEF) (UNDEF 25) } }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT DISTINCT ?c WHERE { ?s a ?c }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 2 OFFSET 1`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["p"].LocalName() != "alice" { // 35,30,25 → offset 1 → 30
		t.Fatalf("first = %v", res.Rows[0])
	}
	if res.Rows[1]["p"].LocalName() != "bob" {
		t.Fatalf("second = %v", res.Rows[1])
	}
}

func TestOrderByAscVariable(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a`)
	if res.Rows[0]["p"].LocalName() != "bob" {
		t.Fatalf("first = %v", res.Rows[0])
	}
}

func TestCountStar(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	n, _ := res.Rows[0]["n"].Int()
	if int(n) != st.Len() {
		t.Fatalf("COUNT(*) = %d, want %d", n, st.Len())
	}
}

func TestCountDistinct(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s a ?c }`)
	n, _ := res.Rows[0]["n"].Int()
	if n != 2 {
		t.Fatalf("COUNT(DISTINCT) = %d, want 2", n)
	}
}

func TestGroupByWithAggregates(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["c"].LocalName() != "Person" {
		t.Fatalf("top class = %v", res.Rows[0])
	}
	n, _ := res.Rows[0]["n"].Int()
	if n != 3 {
		t.Fatalf("Person count = %d", n)
	}
}

func TestHaving(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 2)`)
	if len(res.Rows) != 1 || res.Rows[0]["c"].LocalName() != "Person" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSumAvgMinMax(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?avg) (MIN(?a) AS ?min) (MAX(?a) AS ?max)
		WHERE { ?p ex:age ?a }`)
	r := res.Rows[0]
	if s, _ := r["s"].Int(); s != 90 {
		t.Fatalf("SUM = %v", r["s"])
	}
	if a, _ := r["avg"].Int(); a != 30 {
		t.Fatalf("AVG = %v", r["avg"])
	}
	if m, _ := r["min"].Int(); m != 25 {
		t.Fatalf("MIN = %v", r["min"])
	}
	if m, _ := r["max"].Int(); m != 35 {
		t.Fatalf("MAX = %v", r["max"])
	}
}

func TestGroupConcat(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT (GROUP_CONCAT(?l ; SEPARATOR = "|") AS ?all)
		WHERE { ex:alice ex:knows ?k . ?k <http://www.w3.org/2000/01/rdf-schema#label> ?l }`)
	got := res.Rows[0]["all"].Value
	if got != "Bob|Carol" && got != "Carol|Bob" {
		t.Fatalf("GROUP_CONCAT = %q", got)
	}
}

func TestAsk(t *testing.T) {
	st := fixtureStore(t)
	yes := exec(t, st, `PREFIX ex: <http://ex/> ASK { ex:alice ex:knows ex:bob }`)
	if !yes.Ask || !yes.Boolean {
		t.Fatalf("ASK true case = %+v", yes)
	}
	no := exec(t, st, `PREFIX ex: <http://ex/> ASK { ex:bob ex:knows ex:alice }`)
	if no.Boolean {
		t.Fatalf("ASK false case = %+v", no)
	}
}

func TestBuiltins(t *testing.T) {
	st := fixtureStore(t)
	cases := []struct {
		q    string
		rows int
	}{
		{`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(STRLEN(?l) = 5) }`, 2},    // Alice, Carol
		{`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(UCASE(?l) = "BOB") }`, 1}, //
		{`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER CONTAINS(?l, "o") }`, 3},  // Bob, Carol, Workshop
		{`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER STRSTARTS(?l, "E") }`, 1}, // EDBT
		{`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(LANG(?l) = "en") }`, 1},   // Workshop
		{`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER ISNUMERIC(?a) }`, 3},                                       //
		{`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Person FILTER ISIRI(?s) }`, 3},                                         //
		{`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(ABS(?a - 30) < 1) }`, 1},                                   // alice
		{`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a IN (25, 35)) }`, 2},                                     //
		{`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a NOT IN (25, 35)) }`, 1},                                 //
		{`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(DATATYPE(?l) = <http://www.w3.org/2001/XMLSchema#string>) }`, 4},
	}
	for _, c := range cases {
		res := exec(t, st, c.q)
		if len(res.Rows) != c.rows {
			t.Errorf("query %q: rows = %d, want %d", c.q, len(res.Rows), c.rows)
		}
	}
}

func TestBoundAndCoalesce(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } FILTER(!BOUND(?k)) }`)
	if len(res.Rows) != 1 || res.Rows[0]["p"].LocalName() != "carol" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?v WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } BIND(COALESCE(?k, ex:nobody) AS ?v) }`)
	for _, r := range res2.Rows {
		if _, ok := r["v"]; !ok {
			t.Fatalf("COALESCE left ?v unbound: %v", r)
		}
	}
}

func TestIfFunction(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?cat WHERE { ?p ex:age ?a BIND(IF(?a >= 30, "senior", "junior") AS ?cat) } ORDER BY ?p`)
	want := map[string]string{"alice": "senior", "bob": "junior", "carol": "senior"}
	for _, r := range res.Rows {
		if r["cat"].Value != want[r["p"].LocalName()] {
			t.Fatalf("row %v", r)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	st := fixtureStore(t)
	// ?k unbound for carol → BOUND(?k)=false; error || true must be true:
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k }
			FILTER( (?k = ex:bob) || true ) }`)
	if len(res.Rows) != 4 { // all optional-joined rows survive
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestSelectExpressionProjection(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p (?a + 1 AS ?next) WHERE { ?p ex:age ?a } ORDER BY ?a`)
	n, _ := res.Rows[0]["next"].Int()
	if n != 26 {
		t.Fatalf("next = %v", res.Rows[0]["next"])
	}
}

func TestAnonymousBlankNodeInQuery(t *testing.T) {
	// blank nodes in queries behave as variables... our engine treats
	// them as concrete terms; instead test bracketed object form parses.
	_, err := Parse(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p [ ex:q ?v ] }`)
	if err != nil {
		t.Fatalf("bracket parse: %v", err)
	}
}

func TestListing1QueryParses(t *testing.T) {
	// The exact query shape from the paper's Listing 1.
	q := `PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX dc: <http://purl.org/dc/terms/>
SELECT ?dataset ?title ?url
WHERE {
  ?dataset a dcat:Dataset .
  ?dataset dc:title ?title .
  ?dataset dcat:distribution ?distribution .
  ?distribution dcat:accessURL ?url .
  filter ( regex (?url, 'sparql') ) .
}`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Form != FormSelect || len(parsed.Select) != 3 {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE { ?x ?p }`,
		`SELECT ?x WHERE { ?x ?p ?o`,
		`SELECT ?x WHERE { ?x unknown:p ?o }`,
		`FOO ?x WHERE { ?x ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o } LIMIT abc`,
		`SELECT (COUNT(*) ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o } GROUP BY`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?l WHERE { ?p <http://www.w3.org/2000/01/rdf-schema#label> ?l }`)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Vars) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	// every original row present
	orig := map[string]bool{}
	for _, r := range res.SortedRows() {
		orig[bindingKey(r, res.Vars)] = true
	}
	for _, r := range back.SortedRows() {
		if !orig[bindingKey(r, back.Vars)] {
			t.Fatalf("row %v lost in round trip", r)
		}
	}
}

func TestJSONAskRoundTrip(t *testing.T) {
	res := &Result{Ask: true, Boolean: true}
	data, _ := json.Marshal(res)
	if !strings.Contains(string(data), `"boolean":true`) {
		t.Fatalf("ask json = %s", data)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Ask || !back.Boolean {
		t.Fatalf("back = %+v", back)
	}
}

func TestTableOutput(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Event } ORDER BY ?p`)
	tab := res.Table()
	if !strings.Contains(tab, "?p") || !strings.Contains(tab, "conf") {
		t.Fatalf("table = %q", tab)
	}
}

func TestEmptyResultCount(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Nothing }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (COUNT over empty)", len(res.Rows))
	}
	if n, _ := res.Rows[0]["n"].Int(); n != 0 {
		t.Fatalf("n = %v", res.Rows[0]["n"])
	}
}

func TestLargeJoinSelectivityOrdering(t *testing.T) {
	// build a store where naive left-to-right join order would be slow
	st := store.New()
	p1 := rdf.NewIRI("http://ex/common")
	p2 := rdf.NewIRI("http://ex/rare")
	for i := 0; i < 500; i++ {
		s := rdf.NewIRI("http://ex/s" + itoa(i))
		st.AddSPO(s, p1, rdf.NewInteger(int64(i)))
	}
	st.AddSPO(rdf.NewIRI("http://ex/s42"), p2, rdf.NewLiteral("x"))
	res := exec(t, st, `SELECT ?s ?v WHERE { ?s <http://ex/common> ?v . ?s <http://ex/rare> ?x }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if v, _ := res.Rows[0]["v"].Int(); v != 42 {
		t.Fatalf("v = %v", res.Rows[0]["v"])
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestNestedOptionalWithFilter(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k FILTER(?k = ex:bob) } }`)
	// filter inside OPTIONAL: alice→bob; bob,carol get unbound k
	bound := 0
	for _, r := range res.Rows {
		if _, ok := r["k"]; ok {
			bound++
		}
	}
	if len(res.Rows) != 3 || bound != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSubGroupPattern(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { { ?p a ex:Person } { ?p ex:age ?a } FILTER(?a < 31) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestOrderByStringValues(t *testing.T) {
	st := fixtureStore(t)
	res := exec(t, st, `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?l WHERE { ?s rdfs:label ?l FILTER(LANG(?l) = "") } ORDER BY ?l`)
	var got []string
	for _, r := range res.Rows {
		got = append(got, r["l"].Value)
	}
	want := []string{"Alice", "Bob", "Carol", "EDBT"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic")
		}
	}()
	MustParse("not a query")
}
