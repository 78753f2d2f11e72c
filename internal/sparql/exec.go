package sparql

// The ID-space executor state. Solution rows are flat []store.ID slices
// of length nslots, so the join inner loops (stream.go) allocate no
// per-row maps and compare variables with uint32 equality. Terms are
// materialized only at projection, FILTER/BIND/ORDER BY expression
// evaluation, and result serialization. Operators that must hold a set
// of solutions (full sort, term-space grouping, CONSTRUCT, the right side
// of MINUS) collect them into a rowbuf: rows packed back to back in one
// growing arena.

import (
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
)

// rowbuf is a packed set of solution rows: n rows of stride IDs each,
// stored contiguously. The zero ID (store.NoID) marks an unbound slot.
type rowbuf struct {
	data   []store.ID
	stride int
	n      int
}

func (rb *rowbuf) row(i int) []store.ID {
	return rb.data[i*rb.stride : (i+1)*rb.stride]
}

// add appends a copy of r (stride IDs) to the buffer.
func (rb *rowbuf) add(r []store.ID) {
	rb.data = append(rb.data, r...)
	rb.n++
}

// idExec holds what one execution needs besides the plan: the store
// snapshot, the executor-local dictionary for terms the store has never
// seen (BIND results, VALUES constants) and the scratch Binding reused
// for expression evaluation.
type idExec struct {
	rd       store.ReaderAPI
	maxStore store.ID // highest store-issued ID; larger IDs are local

	local    []rdf.Term // local terms; ID maxStore+1+i
	localIDs map[rdf.Term]store.ID

	nslots  int
	names   []string // slot → variable name
	scratch Binding  // reusable binding for expression evaluation
}

func newIDExec(st store.Queryable) *idExec {
	rd := st.Snapshot()
	return &idExec{
		rd:       rd,
		maxStore: rd.MaxID(),
		localIDs: make(map[rdf.Term]store.ID),
		scratch:  make(Binding, 8),
	}
}

// intern returns the unique ID for t: the store's if it knows the term,
// otherwise an executor-local one. Equal terms always map to equal IDs.
func (e *idExec) intern(t rdf.Term) store.ID {
	if id := e.rd.Lookup(t); id != store.NoID {
		return id
	}
	if id, ok := e.localIDs[t]; ok {
		return id
	}
	e.local = append(e.local, t)
	id := e.maxStore + store.ID(len(e.local))
	e.localIDs[t] = id
	return id
}

// term materializes the term for an ID (store or local).
func (e *idExec) term(id store.ID) rdf.Term {
	if id <= e.maxStore {
		return e.rd.Term(id)
	}
	return e.local[id-e.maxStore-1]
}

// bindScratch rebuilds the reusable scratch Binding with the given
// variables taken from row r. The map is cleared and refilled, never
// reallocated, so expression evaluation costs no per-row map allocation.
func (e *idExec) bindScratch(vars []varslot, r []store.ID) Binding {
	b := e.scratch
	for k := range b {
		delete(b, k)
	}
	for _, vs := range vars {
		if id := r[vs.slot]; id != store.NoID {
			b[vs.name] = e.term(id)
		}
	}
	return b
}

// estimate returns the expected number of matches of p given the current
// bound set: the exact index cardinality over the constant positions,
// refined by an average-fanout division for every row-bound variable.
func (e *idExec) estimate(p *cpattern, bound []bool) int {
	var pat store.IDPattern
	if !p.s.isVar() {
		pat.S = p.s.id
	}
	if !p.p.isVar() {
		pat.P = p.p.id
	}
	if !p.o.isVar() {
		pat.O = p.o.id
	}
	if pat.S > e.maxStore || pat.P > e.maxStore || pat.O > e.maxStore {
		return 0 // a constant the store has never seen matches nothing
	}
	card := e.rd.CardinalityIDs(pat)
	if card == 0 {
		return 0
	}
	if p.s.isVar() && bound[p.s.slot] {
		card = divClamp(card, e.rd.DistinctSubjects())
	}
	if p.p.isVar() && bound[p.p.slot] {
		card = divClamp(card, e.rd.DistinctPredicates())
	}
	if p.o.isVar() && bound[p.o.slot] {
		card = divClamp(card, e.rd.DistinctObjects())
	}
	return card
}

func divClamp(a, b int) int {
	if b < 1 {
		b = 1
	}
	a /= b
	if a < 1 {
		a = 1
	}
	return a
}

// resolvePos writes the concrete ID of a pattern position (constant or
// row-bound variable) into dst, reporting whether the position is
// concrete for this row.
func resolvePos(t cterm, r []store.ID, dst *store.ID) bool {
	if !t.isVar() {
		*dst = t.id
		return true
	}
	if v := r[t.slot]; v != store.NoID {
		*dst = v
		return true
	}
	return false
}

// bindPos binds a matched ID into the row, checking repeated-variable
// consistency. Constant positions were already matched by the index.
func bindPos(t cterm, v store.ID, r []store.ID) bool {
	if !t.isVar() {
		return true
	}
	if cur := r[t.slot]; cur != store.NoID {
		return cur == v
	}
	r[t.slot] = v
	return true
}

// packIDKey appends the 4-byte little-endian encoding of the row's IDs at
// the given slots (a slot of -1 encodes as NoID) — the tuple key shared by
// ID-space DISTINCT and GROUP BY.
func packIDKey(buf []byte, r []store.ID, slots []int) []byte {
	for _, s := range slots {
		var v store.ID
		if s >= 0 {
			v = r[s]
		}
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// sortRows orders the rows by the ORDER BY conditions, materializing one
// key term per (row, condition) — the boundary where terms are needed.
// The flat key storage is viewed as one OrderKey per row so the
// comparison is CompareOrderKeys, shared with sortSolutions and the
// federated ordered merge — the three sorts cannot drift apart.
func (e *idExec) sortRows(rb *rowbuf, conds []OrderCond, condVars [][]varslot) {
	nc := len(conds)
	keys := make([]rdf.Term, rb.n*nc)
	errs := make([]bool, rb.n*nc)
	oks := make([]OrderKey, rb.n)
	for i := 0; i < rb.n; i++ {
		r := rb.row(i)
		for ci, c := range conds {
			t, err := evalExpr(c.Expr, e.bindScratch(condVars[ci], r))
			if err != nil {
				errs[i*nc+ci] = true
			} else {
				keys[i*nc+ci] = t
			}
		}
		oks[i] = OrderKey{keys: keys[i*nc : (i+1)*nc], errs: errs[i*nc : (i+1)*nc]}
	}
	idx := make([]int, rb.n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return CompareOrderKeys(conds, oks[idx[a]], oks[idx[b]]) < 0
	})
	sorted := make([]store.ID, 0, rb.n*rb.stride)
	for _, i := range idx {
		sorted = append(sorted, rb.row(i)...)
	}
	rb.data = sorted
}

// materialize converts one row into a Binding over every bound variable.
func (e *idExec) materialize(r []store.ID) Binding {
	b := make(Binding, len(r))
	for s, v := range r {
		if v != store.NoID {
			b[e.names[s]] = e.term(v)
		}
	}
	return b
}

// materializeAll converts rows into Bindings over every bound variable —
// the boundary to the term-space grouping and CONSTRUCT templating.
func (e *idExec) materializeAll(rb *rowbuf) []Binding {
	out := make([]Binding, rb.n)
	for i := range out {
		out[i] = e.materialize(rb.row(i))
	}
	return out
}

// aliasProj is a compiled (expr AS ?var) projection element.
type aliasProj struct {
	expr Expression
	vars []varslot
	slot int
}

// freeze finalizes the slot table: no variable may be assigned a slot
// after this.
func (e *idExec) freeze(comp *compiler) {
	e.nslots = comp.slots.count()
	e.names = comp.slots.names
}

// resolveSelect resolves ORDER BY references and projection aliases,
// freezes the slot table, and computes the projected variable list and
// slots of a non-grouped SELECT.
func (q *Query) resolveSelect(comp *compiler, ex *idExec) (aliases []aliasProj, vars []string, projSlots []int, obVars [][]varslot) {
	for _, c := range q.OrderBy {
		obVars = append(obVars, comp.exprVars(c.Expr))
	}
	for _, it := range q.Select {
		if it.Expr != nil {
			aliases = append(aliases, aliasProj{expr: it.Expr, vars: comp.exprVars(it.Expr), slot: comp.slots.slot(it.Var)})
		}
	}
	ex.freeze(comp)
	if q.Star {
		vars = q.starVars()
	} else {
		vars = selectVars(q.Select)
	}
	projSlots = make([]int, len(vars))
	for i, v := range vars {
		projSlots[i] = comp.slots.lookup(v)
	}
	return aliases, vars, projSlots, obVars
}

// selectVars lists the variables of a projection, in order.
func selectVars(items []SelectItem) []string {
	vars := make([]string, len(items))
	for i, it := range items {
		vars[i] = it.Var
	}
	return vars
}

func windowBindings(rows []Binding, offset, limit int) []Binding {
	if offset > 0 {
		if offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}
