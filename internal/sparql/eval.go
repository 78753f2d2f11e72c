package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Result holds the outcome of query execution.
type Result struct {
	// Vars is the projected variable list, in projection order.
	Vars []string
	// Rows are the solution bindings. Unbound projected variables are
	// simply missing from the map.
	Rows []Binding
	// Ask is true for ASK queries, in which case Boolean holds the answer
	// and Vars/Rows are empty.
	Ask     bool
	Boolean bool
	// Graph holds the result of a CONSTRUCT query (nil otherwise).
	Graph *rdf.Graph
}

// ExecReference executes the query on the term-space reference
// evaluator: solutions are map-based Bindings joined pattern by pattern,
// with none of the engine's ID-space encoding, compiled plan or
// streaming operators. It is the oracle the differential and
// conformance suites check the engine against; production code runs
// Exec, Stream and Explain.
func (q *Query) ExecReference(st store.Queryable) (*Result, error) {
	ev := &evaluator{st: st}
	sols := ev.evalGroup(q.Where, []Binding{{}})

	if q.Form == FormAsk {
		return &Result{Ask: true, Boolean: len(sols) > 0}, nil
	}
	if q.Form == FormConstruct {
		// solution modifiers apply to the solution sequence before
		// templating
		return &Result{Graph: q.execConstruct(windowBindings(sols, q.Offset, q.Limit))}, nil
	}

	needsGroup := q.needsGrouping()

	var vars []string
	var rows []Binding
	if needsGroup {
		var err error
		vars, rows, err = q.aggregate(sols)
		if err != nil {
			return nil, err
		}
		// In the grouped path ORDER BY references group keys or aggregate
		// aliases, both present in the produced rows.
		if len(q.OrderBy) > 0 {
			sortSolutions(rows, q.OrderBy)
		}
	} else {
		// ORDER BY is evaluated over the full solution bindings (it may
		// reference unprojected variables), so extend each solution with
		// the projection aliases, sort, then restrict.
		extended := sols
		if len(q.OrderBy) > 0 || hasAliases(q.Select) {
			extended = make([]Binding, len(sols))
			for i, s := range sols {
				ns := s.clone()
				for _, it := range q.Select {
					if it.Expr == nil {
						continue
					}
					if t, err := evalExpr(it.Expr, s); err == nil {
						ns[it.Var] = t
					}
				}
				extended[i] = ns
			}
			if len(q.OrderBy) > 0 {
				sortSolutions(extended, q.OrderBy)
			}
		}
		vars, rows = q.projectPrepared(extended)
	}
	// DISTINCT
	if q.Distinct || q.Reduced {
		rows = distinct(rows, vars)
	}
	return &Result{Vars: vars, Rows: windowBindings(rows, q.Offset, q.Limit)}, nil
}

func hasAliases(items []SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil {
			return true
		}
	}
	return false
}

// projectPrepared applies the SELECT clause to solutions whose expression
// aliases have already been materialized into the bindings.
func (q *Query) projectPrepared(sols []Binding) ([]string, []Binding) {
	if q.Star {
		return q.starVars(), sols
	}
	vars := selectVars(q.Select)
	rows := make([]Binding, 0, len(sols))
	for _, s := range sols {
		out := Binding{}
		for _, v := range vars {
			if t, ok := s[v]; ok {
				out[v] = t
			}
		}
		rows = append(rows, out)
	}
	return vars, rows
}

func (q *Query) starVars() []string {
	seen := map[string]bool{}
	var vars []string
	collectVars(q.Where, func(v string) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	})
	sort.Strings(vars)
	return vars
}

// aggregate applies GROUP BY / HAVING and aggregate projections.
func (q *Query) aggregate(sols []Binding) ([]string, []Binding, error) {
	type group struct {
		key  string
		base Binding // group-key bindings
		rows []Binding
	}
	groups := map[string]*group{}
	var order []string

	keyFor := func(s Binding) (string, Binding) {
		var sb strings.Builder
		base := Binding{}
		for _, ge := range q.GroupBy {
			t, err := evalExpr(ge, s)
			if err != nil {
				sb.WriteString("\x00!")
				continue
			}
			sb.WriteString(t.String())
			sb.WriteByte('\x00')
			if v, ok := ge.(*ExprVar); ok {
				base[v.Name] = t
			}
		}
		return sb.String(), base
	}

	if len(q.GroupBy) == 0 {
		g := &group{key: "", base: Binding{}, rows: sols}
		groups[""] = g
		order = append(order, "")
	} else {
		for _, s := range sols {
			k, base := keyFor(s)
			g, ok := groups[k]
			if !ok {
				g = &group{key: k, base: base}
				groups[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, s)
		}
	}

	vars := make([]string, len(q.Select))
	for i, it := range q.Select {
		vars[i] = it.Var
		if it.Var == "" {
			return nil, nil, fmt.Errorf("sparql: aggregate projection requires AS")
		}
	}

	var rows []Binding
	for _, k := range order {
		g := groups[k]
		// HAVING
		keep := true
		for _, h := range q.Having {
			t, err := evalAggExpr(h, g.rows, g.base)
			if err != nil {
				keep = false
				break
			}
			v, err := EffectiveBool(t)
			if err != nil || !v {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		out := Binding{}
		for _, it := range q.Select {
			if it.Expr == nil {
				if t, ok := g.base[it.Var]; ok {
					out[it.Var] = t
				} else if len(g.rows) > 0 {
					// plain var projected under GROUP BY must be a group key;
					// tolerate by sampling (useful for functional data)
					if t, ok := g.rows[0][it.Var]; ok {
						out[it.Var] = t
					}
				}
				continue
			}
			if t, err := evalAggExpr(it.Expr, g.rows, g.base); err == nil {
				out[it.Var] = t
			}
		}
		rows = append(rows, out)
	}
	// A grouped query over zero solutions with no GROUP BY yields one row
	// (e.g. COUNT(*) = 0).
	if len(q.GroupBy) == 0 && len(sols) == 0 && len(rows) == 1 {
		// keep the single all-aggregate row
		_ = rows
	}
	return vars, rows, nil
}

// evalAggExpr evaluates an expression that may contain aggregates over the
// rows of one group.
func evalAggExpr(e Expression, rows []Binding, base Binding) (rdf.Term, error) {
	switch x := e.(type) {
	case *ExprAggregate:
		return evalAggregate(x, rows)
	case *ExprBinary:
		l, err := evalAggExpr(x.L, rows, base)
		if err != nil {
			return rdf.Term{}, err
		}
		r, err := evalAggExpr(x.R, rows, base)
		if err != nil {
			return rdf.Term{}, err
		}
		return evalBinary(&ExprBinary{Op: x.Op, L: &ExprTerm{Term: l}, R: &ExprTerm{Term: r}}, base)
	case *ExprUnary:
		v, err := evalAggExpr(x.X, rows, base)
		if err != nil {
			return rdf.Term{}, err
		}
		return evalUnary(&ExprUnary{Op: x.Op, X: &ExprTerm{Term: v}}, base)
	case *ExprCall:
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			if HasAggregate(a) {
				v, err := evalAggExpr(a, rows, base)
				if err != nil {
					return rdf.Term{}, err
				}
				args[i] = &ExprTerm{Term: v}
			} else {
				args[i] = a
			}
		}
		return evalCall(&ExprCall{Fn: x.Fn, Args: args}, base)
	default:
		return evalExpr(e, base)
	}
}

func evalAggregate(x *ExprAggregate, rows []Binding) (rdf.Term, error) {
	// collect argument values
	var vals []rdf.Term
	if x.Arg == nil { // COUNT(*)
		if x.Distinct {
			seen := map[string]bool{}
			n := 0
			for _, r := range rows {
				k := bindingKey(r, nil)
				if !seen[k] {
					seen[k] = true
					n++
				}
			}
			return rdf.NewInteger(int64(n)), nil
		}
		return rdf.NewInteger(int64(len(rows))), nil
	}
	for _, r := range rows {
		if t, err := evalExpr(x.Arg, r); err == nil {
			vals = append(vals, t)
		}
	}
	if x.Distinct {
		seen := map[rdf.Term]bool{}
		var d []rdf.Term
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				d = append(d, v)
			}
		}
		vals = d
	}
	switch x.Fn {
	case "COUNT":
		return rdf.NewInteger(int64(len(vals))), nil
	case "SUM":
		sum := 0.0
		for _, v := range vals {
			f, ok := v.Float()
			if !ok {
				return rdf.Term{}, exprErrf("SUM over non-numeric")
			}
			sum += f
		}
		return formatFloat(sum), nil
	case "AVG":
		if len(vals) == 0 {
			return rdf.NewInteger(0), nil
		}
		sum := 0.0
		for _, v := range vals {
			f, ok := v.Float()
			if !ok {
				return rdf.Term{}, exprErrf("AVG over non-numeric")
			}
			sum += f
		}
		return formatFloat(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return rdf.Term{}, exprErrf("%s of empty group", x.Fn)
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := termOrder(v, best)
			if err != nil {
				c = v.Compare(best)
			}
			if (x.Fn == "MIN" && c < 0) || (x.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(vals) == 0 {
			return rdf.Term{}, exprErrf("SAMPLE of empty group")
		}
		return vals[0], nil
	case "GROUP_CONCAT":
		parts := make([]string, 0, len(vals))
		for _, v := range vals {
			parts = append(parts, v.Value)
		}
		return rdf.NewLiteral(strings.Join(parts, x.Separator)), nil
	}
	return rdf.Term{}, exprErrf("unknown aggregate %s", x.Fn)
}

// --- pattern evaluation ---

type evaluator struct {
	st store.Queryable
}

func (ev *evaluator) evalGroup(g *GroupPattern, input []Binding) []Binding {
	sols := input
	for _, el := range g.Elems {
		sols = ev.evalPattern(el, sols)
		if len(sols) == 0 {
			// Filters can't resurrect solutions; bail early unless a later
			// element is a UNION/VALUES that could still produce rows from
			// the empty set — it can't, since joins with zero rows are zero.
			break
		}
	}
	if len(g.Filters) > 0 {
		kept := sols[:0:0]
		for _, s := range sols {
			ok := true
			for _, f := range g.Filters {
				v, err := evalBool(f, s)
				if err != nil || !v {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, s)
			}
		}
		sols = kept
	}
	return sols
}

func (ev *evaluator) evalPattern(p GraphPattern, input []Binding) []Binding {
	switch x := p.(type) {
	case *BGP:
		return ev.evalBGP(x, input)
	case *GroupPattern:
		return ev.evalGroup(x, input)
	case *OptionalPattern:
		var out []Binding
		for _, left := range input {
			ext := ev.evalGroup(x.Inner, []Binding{left})
			if len(ext) == 0 {
				out = append(out, left)
			} else {
				out = append(out, ext...)
			}
		}
		return out
	case *UnionPattern:
		l := ev.evalGroup(x.Left, input)
		r := ev.evalGroup(x.Right, input)
		return append(l, r...)
	case *MinusPattern:
		right := ev.evalGroup(x.Inner, []Binding{{}})
		var out []Binding
		for _, left := range input {
			removed := false
			for _, r := range right {
				if compatibleSharing(left, r) {
					removed = true
					break
				}
			}
			if !removed {
				out = append(out, left)
			}
		}
		return out
	case *BindPattern:
		out := make([]Binding, 0, len(input))
		for _, s := range input {
			ns := s.clone()
			if t, err := evalExpr(x.Expr, s); err == nil {
				ns[x.Var] = t
			}
			out = append(out, ns)
		}
		return out
	case *ValuesPattern:
		var out []Binding
		for _, s := range input {
			for _, row := range x.Rows {
				ns := s.clone()
				ok := true
				for i, v := range x.Vars {
					t := row[i]
					if t.IsZero() {
						continue // UNDEF
					}
					if cur, bound := ns[v]; bound {
						if cur != t {
							ok = false
							break
						}
					} else {
						ns[v] = t
					}
				}
				if ok {
					out = append(out, ns)
				}
			}
		}
		return out
	}
	return nil
}

// compatibleSharing reports whether two bindings share at least one
// variable and agree on all shared variables (MINUS semantics).
func compatibleSharing(l, r Binding) bool {
	shared := false
	for k, v := range r {
		if lv, ok := l[k]; ok {
			shared = true
			if lv != v {
				return false
			}
		}
	}
	return shared
}

// evalBGP joins the triple patterns with greedy selectivity ordering.
func (ev *evaluator) evalBGP(bgp *BGP, input []Binding) []Binding {
	if len(bgp.Patterns) == 0 {
		return input
	}
	sols := input
	remaining := make([]TriplePattern, len(bgp.Patterns))
	copy(remaining, bgp.Patterns)
	// The estimate depends only on the pattern's constants, so one store
	// call per pattern suffices; re-estimating every remaining pattern on
	// every iteration cost O(k²) Cardinality calls per BGP.
	cards := make([]int, len(remaining))
	for i, tp := range remaining {
		cards[i] = ev.st.Cardinality(patternFor(tp))
	}
	bound := map[string]bool{}
	if len(input) > 0 {
		for v := range input[0] {
			bound[v] = true
		}
	}
	first := true
	for len(remaining) > 0 {
		// Pick the next pattern greedily: prefer patterns connected to an
		// already-bound variable (joining disconnected patterns builds a
		// cartesian product), then the smallest estimated cardinality.
		best, bestCard, bestConn := -1, int(^uint(0)>>1), false
		for i, tp := range remaining {
			conn := first
			for _, v := range tp.Vars() {
				if bound[v] {
					conn = true
					break
				}
			}
			if best == -1 || (conn && !bestConn) || (conn == bestConn && cards[i] < bestCard) {
				best, bestCard, bestConn = i, cards[i], conn
			}
		}
		first = false
		tp := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		cards = append(cards[:best], cards[best+1:]...)
		sols = ev.joinPattern(tp, sols)
		if len(sols) == 0 {
			return nil
		}
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return sols
}

// patternFor builds a store pattern for cardinality estimation from the
// pattern's constants (row-bound variables are approximated as free, which
// over-estimates but never changes results).
func patternFor(tp TriplePattern) store.Pattern {
	var pat store.Pattern
	if !tp.S.IsVar() {
		pat.S = tp.S.Term
	}
	if !tp.P.IsVar() {
		pat.P = tp.P.Term
	}
	if !tp.O.IsVar() {
		pat.O = tp.O.Term
	}
	return pat
}

// joinPattern extends each solution with all matches of tp.
func (ev *evaluator) joinPattern(tp TriplePattern, sols []Binding) []Binding {
	var out []Binding
	for _, s := range sols {
		pat := store.Pattern{}
		resolve := func(n NodePattern) (rdf.Term, bool) { // term, isConcrete
			if !n.IsVar() {
				return n.Term, true
			}
			if t, ok := s[n.Var]; ok {
				return t, true
			}
			return rdf.Term{}, false
		}
		if t, ok := resolve(tp.S); ok {
			pat.S = t
		}
		if t, ok := resolve(tp.P); ok {
			pat.P = t
		}
		if t, ok := resolve(tp.O); ok {
			pat.O = t
		}
		ev.st.Match(pat, func(tr rdf.Triple) bool {
			ns := s.clone()
			if unify(tp, tr, ns) {
				out = append(out, ns)
			}
			return true
		})
	}
	return out
}

// unify binds the pattern's variables to the triple's terms, checking
// repeated variables for consistency.
func unify(tp TriplePattern, tr rdf.Triple, b Binding) bool {
	bind := func(n NodePattern, t rdf.Term) bool {
		if !n.IsVar() {
			return n.Term == t
		}
		if cur, ok := b[n.Var]; ok {
			return cur == t
		}
		b[n.Var] = t
		return true
	}
	return bind(tp.S, tr.S) && bind(tp.P, tr.P) && bind(tp.O, tr.O)
}

// --- helpers ---

func collectVars(p GraphPattern, add func(string)) {
	switch x := p.(type) {
	case *BGP:
		for _, tp := range x.Patterns {
			for _, v := range tp.Vars() {
				add(v)
			}
		}
	case *GroupPattern:
		for _, el := range x.Elems {
			collectVars(el, add)
		}
	case *OptionalPattern:
		collectVars(x.Inner, add)
	case *UnionPattern:
		collectVars(x.Left, add)
		collectVars(x.Right, add)
	case *MinusPattern:
		// MINUS does not bind
	case *BindPattern:
		add(x.Var)
	case *ValuesPattern:
		for _, v := range x.Vars {
			add(v)
		}
	}
}

func sortSolutions(rows []Binding, conds []OrderCond) {
	// Precompute the sort keys once per row: evaluating expressions
	// inside the comparator would cost O(n log n) evaluations. The
	// comparison itself is CompareOrderKeys, shared with the federated
	// ordered merge so both establish the same order.
	type keyed struct {
		row Binding
		key OrderKey
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{row: r, key: OrderKeyOf(conds, r)}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		return CompareOrderKeys(conds, ks[i].key, ks[j].key) < 0
	})
	for i := range ks {
		rows[i] = ks[i].row
	}
}

func distinct(rows []Binding, vars []string) []Binding {
	seen := map[string]bool{}
	out := rows[:0:0]
	for _, r := range rows {
		k := bindingKey(r, vars)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// bindingKey builds a canonical string key of a binding restricted to vars
// (nil means all bound variables, sorted). With an explicit vars list the
// key is positional; with nil it carries the variable names too, so two
// rows binding the same value under different variables — possible when
// rows from heterogeneous sources meet in a federated merge, or under
// OPTIONAL in COUNT(DISTINCT *) — do not collide.
func bindingKey(b Binding, vars []string) string {
	var sb strings.Builder
	if vars == nil {
		vars = make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			sb.WriteString(v)
			sb.WriteByte('\x01')
			sb.WriteString(b[v].String())
			sb.WriteByte('\x00')
		}
		return sb.String()
	}
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}
