package sparql

// Query execution. One pipeline serves Stream, Exec and Explain: the
// query is compiled against a store snapshot (plan.go), the WHERE clause
// runs depth-first through the streaming operators below — each row
// travels the whole join pipeline alone and reaches the solution
// modifiers as soon as its last pattern matches — and the modifiers form
// one stage chain: aliases → group → order → distinct → window →
// project. Operators that can stream do (plain rows, the bounded top-k
// heap, accumulator grouping), so a consumer that stops early (LIMIT, a
// canceled context, an abandoned HTTP connection) costs only the rows it
// actually pulled. The rest — full ORDER BY, term-space grouping,
// CONSTRUCT — block on the collected ID rows and then stream their
// output through the same tail of the chain.

import (
	"context"
	"iter"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// RowSeq is a streaming SELECT result: the head (projected variables) is
// known up front, rows arrive incrementally. The zero value is an empty
// stream.
//
// Contract: iterate with Next or All; after the stream is exhausted (or
// abandoned) check Err for the reason it stopped early, and call Close
// when abandoning a stream before exhaustion so the producer can release
// its resources (an HTTP body, a store snapshot). Close is idempotent
// and safe after exhaustion. A RowSeq is single-consumer and not safe
// for concurrent use.
type RowSeq struct {
	// Vars is the projected variable list, in projection order.
	Vars []string
	// Ask and Boolean are set for ASK queries; the stream yields no rows.
	Ask     bool
	Boolean bool
	// Graph carries a CONSTRUCT result through the streaming interface
	// (such queries have no row stream to speak of).
	Graph *rdf.Graph

	seq     iter.Seq[Binding] // push producer, until the first Next pulls it
	next    func() (Binding, bool)
	stop    func()
	onClose func()
	errp    *error
	done    bool
}

// OnClose registers fn to run exactly once when the stream ends — by
// exhaustion or by Close — so producers can release resources (an HTTP
// body, a file) even if the consumer abandons the stream before pulling
// a single row. Multiple registrations compose: each fn runs once, in
// registration order, so a producer's cleanup and an observer's
// accounting can coexist on one stream.
func (rs *RowSeq) OnClose(fn func()) {
	if prev := rs.onClose; prev != nil {
		rs.onClose = func() { prev(); fn() }
		return
	}
	rs.onClose = fn
}

// NewRowSeq builds a RowSeq over a push iterator. The producer reports a
// mid-stream failure by setting *errp before returning; errp may be nil
// for infallible producers. The producer runs on the consumer's
// goroutine (via iter.Pull, or a plain range in Collect), so no
// synchronization is needed around errp.
func NewRowSeq(vars []string, seq iter.Seq[Binding], errp *error) *RowSeq {
	return &RowSeq{Vars: vars, seq: seq, errp: errp}
}

// ResultSeq adapts a materialized Result to the streaming interface.
func ResultSeq(res *Result) *RowSeq {
	i := 0
	return &RowSeq{
		Vars: res.Vars, Ask: res.Ask, Boolean: res.Boolean, Graph: res.Graph,
		next: func() (Binding, bool) {
			if i >= len(res.Rows) {
				return nil, false
			}
			b := res.Rows[i]
			i++
			return b, true
		},
	}
}

// Next pulls the next row. ok is false once the stream is exhausted,
// failed (see Err) or closed.
func (rs *RowSeq) Next() (Binding, bool) {
	if rs.done {
		return nil, false
	}
	if rs.seq != nil {
		rs.next, rs.stop = iter.Pull(rs.seq)
		rs.seq = nil
	}
	if rs.next != nil {
		if b, ok := rs.next(); ok {
			return b, true
		}
	}
	rs.Close()
	return nil, false
}

// All returns the remaining rows as a range-over-func iterator. Breaking
// out of the range leaves the stream open; call Close to release it.
func (rs *RowSeq) All() iter.Seq[Binding] {
	return func(yield func(Binding) bool) {
		for {
			b, ok := rs.Next()
			if !ok {
				return
			}
			if !yield(b) {
				return
			}
		}
	}
}

// Err reports why the stream stopped: nil after a complete, successful
// iteration (or when iteration has not finished), the producer's error
// otherwise. Check it after the loop, like bufio.Scanner.
func (rs *RowSeq) Err() error {
	if rs.errp != nil {
		return *rs.errp
	}
	return nil
}

// Close releases the stream's resources. It is idempotent and safe to
// call at any point; rows cannot be pulled afterwards.
func (rs *RowSeq) Close() {
	if rs.done {
		return
	}
	rs.done = true
	if rs.stop != nil {
		rs.stop()
	}
	if rs.onClose != nil {
		rs.onClose()
		rs.onClose = nil
	}
}

// Collect drains the stream into a materialized Result, closing it. A
// stream nobody has pulled from yet is drained by ranging over its
// producer directly, without a coroutine switch per row.
func (rs *RowSeq) Collect() (*Result, error) {
	defer rs.Close()
	if rs.Ask {
		return &Result{Ask: true, Boolean: rs.Boolean}, rs.Err()
	}
	res := &Result{Vars: rs.Vars, Graph: rs.Graph}
	if seq := rs.seq; seq != nil && !rs.done {
		rs.seq = nil
		for b := range seq {
			res.Rows = append(res.Rows, b)
		}
	} else {
		for {
			b, ok := rs.Next()
			if !ok {
				break
			}
			res.Rows = append(res.Rows, b)
		}
	}
	if err := rs.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Limit returns a stream that yields at most n rows of rs, then stops
// cleanly — the streaming counterpart of an endpoint's silent result cap.
func (rs *RowSeq) Limit(n int) *RowSeq {
	out := &RowSeq{Vars: rs.Vars, Ask: rs.Ask, Boolean: rs.Boolean, Graph: rs.Graph, errp: rs.errp}
	left := n
	out.next = func() (Binding, bool) {
		if left <= 0 {
			rs.Close()
			return nil, false
		}
		left--
		return rs.Next()
	}
	out.stop = rs.Close
	return out
}

// Tap returns a stream identical to rs that additionally calls fn for
// every row pulled through it; the endpoint simulation uses it to charge
// per-row virtual cost at the moment a row crosses the wire.
func (rs *RowSeq) Tap(fn func(Binding)) *RowSeq {
	out := &RowSeq{Vars: rs.Vars, Ask: rs.Ask, Boolean: rs.Boolean, Graph: rs.Graph, errp: rs.errp}
	out.next = func() (Binding, bool) {
		b, ok := rs.Next()
		if ok {
			fn(b)
		}
		return b, ok
	}
	out.stop = rs.Close
	return out
}

// kind buckets the query for the engine's registry series.
func (q *Query) kind() string {
	switch {
	case q.Form == FormAsk:
		return "ask"
	case q.Form == FormConstruct:
		return "construct"
	case q.needsGrouping():
		return "aggregate"
	case len(q.OrderBy) > 0:
		return "ordered"
	case q.Distinct || q.Reduced:
		return "distinct"
	default:
		return "select"
	}
}

// instrumentStream attaches per-query engine accounting to rs: rows are
// counted as they are produced, and at stream end (exhaustion or Close)
// the query count, row count and duration land in kind-labeled registry
// families; sp, when non-nil, is closed with the yielded row count. With
// reg and sp both nil (the uninstrumented path) this is a no-op — no
// wrapper, no per-row work.
func instrumentStream(rs *RowSeq, reg *obs.Registry, sp *obs.Span, kind string, start time.Time) {
	if reg == nil && sp == nil {
		return
	}
	var rows int64
	if inner := rs.seq; inner != nil {
		rs.seq = func(yield func(Binding) bool) {
			for b := range inner {
				rows++
				if !yield(b) {
					return
				}
			}
		}
	}
	rs.OnClose(func() {
		sp.SetRows(0, rows)
		sp.End()
		if reg != nil {
			reg.CounterVec("hbold_query_total", "Queries executed by the SPARQL engine.", "kind").With(kind).Inc()
			reg.CounterVec("hbold_query_rows_total", "Rows yielded by the SPARQL engine.", "kind").With(kind).Add(float64(rows))
			reg.HistogramVec("hbold_query_duration_seconds", "Query wall time, stream open to stream end.", nil, "kind").With(kind).Observe(time.Since(start).Seconds())
		}
	})
}

// Exec parses and executes a query against any storage tier.
func Exec(st store.Queryable, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Exec(st)
}

// Exec executes the parsed query against st and collects the result.
func (q *Query) Exec(st store.Queryable) (*Result, error) {
	rs, err := q.Stream(context.Background(), st)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// StreamExec parses the query and streams it against st.
func StreamExec(ctx context.Context, st store.Queryable, query string) (*RowSeq, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Stream(ctx, st)
}

// NeedsGrouping reports whether the query requires the grouping/
// aggregation machinery (which needs the full solution set). The
// federation layer uses it to reject fan-out of aggregates — each
// member would aggregate its own partition and the merge would
// interleave partial results, not combine them.
func (q *Query) NeedsGrouping() bool { return q.needsGrouping() }

// needsGrouping reports whether the query requires the grouping/
// aggregation machinery (which needs the full solution set).
func (q *Query) needsGrouping() bool {
	if len(q.GroupBy) > 0 || len(q.Having) > 0 {
		return true
	}
	for _, it := range q.Select {
		if it.Expr != nil && HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// Stream executes the parsed query incrementally against st. SELECT rows
// are produced as the consumer pulls them; ASK and CONSTRUCT are answered
// before Stream returns. The stream honors ctx between rows and during
// index scans.
func (q *Query) Stream(ctx context.Context, st store.Queryable) (*RowSeq, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Observability is opt-in via the context: without a registry or
	// trace attached, kind/start stay unused and no wrapper is added.
	reg := obs.RegistryFrom(ctx)
	kind := q.kind()
	sp := obs.StartSpan(ctx, "query:"+kind)
	var start time.Time
	if reg != nil || sp != nil {
		start = time.Now()
	}
	p, err := q.compile(ctx, st)
	var rs *RowSeq
	if err == nil {
		if reg != nil {
			reg.Histogram("hbold_query_compile_seconds", "Plan compilation time for ID-space streamed queries.", nil).Observe(time.Since(start).Seconds())
		}
		rs, err = p.rowSeq()
	}
	if err != nil {
		sp.End()
		if reg != nil {
			reg.CounterVec("hbold_query_errors_total", "Queries that failed before yielding a stream.", "kind").With(kind).Inc()
		}
		return nil, err
	}
	instrumentStream(rs, reg, sp, kind, start)
	return rs, nil
}

// rowSink receives one solution row; returning false stops the producer.
// The row may be producer scratch: a sink that keeps it must copy it.
type rowSink func(r []store.ID) bool

// pipeline is one query compiled against one store snapshot, with the
// projection surface its stage chain needs.
type pipeline struct {
	q    *Query
	ctx  context.Context
	reg  *obs.Registry
	ex   *idExec
	se   *streamExec
	root *cgroup
	prof *profiler // nil unless Explain attached one

	vars      []string
	aliases   []aliasProj
	projSlots []int
	obVars    [][]varslot
	agg       *streamAggSpec // accumulator grouping; nil when the term-space aggregate is needed
	gslots    []int
	err       error
}

// compile plans q against a snapshot of st.
func (q *Query) compile(ctx context.Context, st store.Queryable) (*pipeline, error) {
	ex := newIDExec(st)
	comp := &compiler{ex: ex, slots: newSlotmap()}
	root, err := comp.group(q.Where)
	if err != nil {
		return nil, err
	}
	p := &pipeline{q: q, ctx: ctx, reg: obs.RegistryFrom(ctx), ex: ex, root: root}
	switch {
	case q.Form != FormSelect:
		ex.freeze(comp)
	case q.needsGrouping():
		if p.agg = q.streamAggSpec(); p.agg != nil {
			p.gslots = p.agg.resolve(comp.slots)
		}
		ex.freeze(comp)
		p.vars = selectVars(q.Select)
	default:
		p.aliases, p.vars, p.projSlots, p.obVars = q.resolveSelect(comp, ex)
	}
	p.se = &streamExec{ctx: ctx, ex: ex, orders: map[*cBGP][]int{}, minus: map[*cMinus]*rowbuf{}}
	return p, nil
}

// rowSeq answers ASK and CONSTRUCT on the spot and wraps a SELECT's
// stage chain as a lazy stream.
func (p *pipeline) rowSeq() (*RowSeq, error) {
	switch p.q.Form {
	case FormAsk:
		ok := p.ask()
		if p.err != nil {
			return nil, p.err
		}
		return &RowSeq{Ask: true, Boolean: ok}, nil
	case FormConstruct:
		g := p.construct()
		if p.err != nil {
			return nil, p.err
		}
		return &RowSeq{Graph: g}, nil
	}
	return NewRowSeq(p.vars, p.run, &p.err), nil
}

// where drives the WHERE clause through the streaming operators and
// hands each solution to sink, checking ctx between rows.
func (p *pipeline) where(sink rowSink) {
	ctx := p.ctx
	p.se.streamGroup(p.root, make([]store.ID, p.ex.nslots), 0, func(r []store.ID, _ int) bool {
		if err := ctx.Err(); err != nil {
			p.se.err = err
			return false
		}
		return sink(r)
	})
	if p.err == nil {
		p.err = p.se.err
	}
}

// canceled records and reports a cancellation between emitted rows of a
// blocking stage.
func (p *pipeline) canceled() bool {
	if err := p.ctx.Err(); err != nil {
		p.err = err
		return true
	}
	return false
}

// ask stops at the first solution.
func (p *pipeline) ask() bool {
	p.prof.addStage("where", 1)
	found := false
	p.where(func([]store.ID) bool {
		found = true
		return false
	})
	return found
}

// construct collects the OFFSET+LIMIT window of solutions and
// instantiates the template over it.
func (p *pipeline) construct() *rdf.Graph {
	q, pr := p.q, p.prof
	pr.addStage("where", 1)
	i := pr.addStage("construct", 0)
	budget := -1
	if q.Limit >= 0 {
		budget = q.Offset + q.Limit
	}
	rb := &rowbuf{stride: p.ex.nslots}
	p.where(pr.meter(i, func(r []store.ID) bool {
		rb.add(r)
		return budget < 0 || rb.n < budget
	}))
	if p.err != nil {
		return nil
	}
	pr.enter(i)
	return q.execConstruct(windowBindings(p.ex.materializeAll(rb), q.Offset, q.Limit))
}

// run drives a SELECT through its stage chain and yields the projected
// solutions in order. Stages are registered with the profiler in run
// order; without one every index is -1 and meter hands sinks back
// unwrapped.
func (p *pipeline) run(yield func(Binding) bool) {
	q, pr := p.q, p.prof
	if q.needsGrouping() {
		p.runGrouped(yield)
		return
	}
	pr.addStage("where", 1)
	iAlias := -1
	if len(p.aliases) > 0 {
		iAlias = pr.addStage("aliases", 0)
	}
	// ORDER BY … LIMIT keeps only OFFSET+LIMIT rows in a bounded heap;
	// DISTINCT is excluded because deduplication after the heap could
	// shrink the window below k.
	topK := len(q.OrderBy) > 0 && q.topKBound() >= 0 && !q.Distinct && !q.Reduced
	iOrder := -1
	switch {
	case topK:
		iOrder = pr.addStage("top-k", 0)
	case len(q.OrderBy) > 0:
		iOrder = pr.addStage("order-by", 0)
	}
	distinct := q.Distinct || q.Reduced
	iDistinct := -1
	if distinct {
		iDistinct = pr.addStage("distinct", 0)
	}
	iWindow := pr.addStage("window", 0)
	iProject := pr.addStage("project", 0)

	emit := pr.meter(iWindow, p.window(pr.meter(iProject, func(r []store.ID) bool {
		return yield(p.project(r))
	})))
	if distinct {
		emit = pr.meter(iDistinct, p.dedup(emit))
	}
	sink := emit
	var heap *rowTopK
	var sorted *rowbuf
	var scanned int64
	switch {
	case topK:
		if p.reg != nil {
			p.reg.CounterVec("hbold_stream_op_total", "Streaming operator activations by operator.", "op").With("top-k").Inc()
		}
		heap = newRowTopK(q.OrderBy, q.topKBound())
		var key OrderKey
		sink = pr.meter(iOrder, func(r []store.ID) bool {
			scanned++
			heap.offer(r, p.ex.orderKeyOfRowInto(q.OrderBy, p.obVars, r, &key))
			return true
		})
	case len(q.OrderBy) > 0:
		sorted = &rowbuf{stride: p.ex.nslots}
		sink = pr.meter(iOrder, func(r []store.ID) bool {
			sorted.add(r)
			return true
		})
	}
	if len(p.aliases) > 0 {
		sink = pr.meter(iAlias, p.withAliases(sink))
	}
	p.where(sink)
	if p.err != nil {
		return
	}
	switch {
	case heap != nil:
		pr.enter(iOrder)
		if p.reg != nil {
			p.reg.CounterVec("hbold_stream_op_rows_total", "Rows consumed by streaming operators.", "op").With("top-k").Add(float64(scanned))
			p.reg.Histogram("hbold_stream_topk_heap_rows", "Rows retained by the streaming top-k heap at emit.", nil).Observe(float64(heap.size()))
		}
		for _, en := range heap.sorted() {
			if p.canceled() || !emit(en.row) {
				return
			}
		}
	case sorted != nil:
		pr.enter(iOrder)
		p.ex.sortRows(sorted, q.OrderBy, p.obVars)
		for i := 0; i < sorted.n; i++ {
			if p.canceled() || !emit(sorted.row(i)) {
				return
			}
		}
	}
}

// runGrouped is run for GROUP BY / aggregate queries. Accumulator-friendly
// shapes fold rows into per-group state as the WHERE clause produces
// them (streamagg.go); the rest collect the solutions and group them in
// term space. The groups then pass ORDER BY, DISTINCT and the window as
// Bindings.
func (p *pipeline) runGrouped(yield func(Binding) bool) {
	q, pr := p.q, p.prof
	pr.addStage("where", 1)
	var out []Binding
	if p.agg != nil {
		i := pr.addStage("hash-group", 0)
		if p.reg != nil {
			p.reg.CounterVec("hbold_stream_op_total", "Streaming operator activations by operator.", "op").With("hash-group").Inc()
		}
		agg := newStreamAgg(p.ex, p.agg, p.gslots)
		var scanned int64
		p.where(pr.meter(i, func(r []store.ID) bool {
			scanned++
			agg.add(r)
			return true
		}))
		if p.err != nil {
			return
		}
		pr.enter(i)
		if p.reg != nil {
			p.reg.CounterVec("hbold_stream_op_rows_total", "Rows consumed by streaming operators.", "op").With("hash-group").Add(float64(scanned))
			p.reg.Histogram("hbold_stream_group_count", "Groups live in the streaming hash aggregation at emit.", nil).Observe(float64(agg.groupCount()))
		}
		out = agg.emit()
	} else {
		i := pr.addStage("aggregate", 0)
		rb := &rowbuf{stride: p.ex.nslots}
		p.where(pr.meter(i, func(r []store.ID) bool {
			rb.add(r)
			return true
		}))
		if p.err != nil {
			return
		}
		pr.enter(i)
		var err error
		if _, out, err = q.aggregate(p.ex.materializeAll(rb)); err != nil {
			p.err = err
			return
		}
	}
	if len(q.OrderBy) > 0 {
		pr.begin("order-by", len(out))
		sortSolutions(out, q.OrderBy)
	}
	if q.Distinct || q.Reduced {
		pr.begin("distinct", len(out))
		out = distinct(out, p.vars)
	}
	pr.begin("window", len(out))
	for _, b := range windowBindings(out, q.Offset, q.Limit) {
		if p.canceled() || !yield(b) {
			return
		}
	}
}

// withAliases evaluates the projection aliases on each row and hands on
// a copy with their slots filled. Aliases see the pre-alias row, not
// each other.
func (p *pipeline) withAliases(next rowSink) rowSink {
	ar := make([]store.ID, p.ex.nslots)
	return func(r []store.ID) bool {
		copy(ar, r)
		for _, a := range p.aliases {
			if t, err := evalExpr(a.expr, p.ex.bindScratch(a.vars, r)); err == nil {
				ar[a.slot] = p.ex.intern(t)
			}
		}
		return next(ar)
	}
}

// dedup drops rows whose projected ID tuple was already seen; the first
// occurrence in arrival order is kept.
func (p *pipeline) dedup(next rowSink) rowSink {
	seen := make(map[string]struct{})
	var key []byte
	return func(r []store.ID) bool {
		key = packIDKey(key[:0], r, p.projSlots)
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
		return next(r)
	}
}

// window skips OFFSET rows and stops the producer once LIMIT rows have
// passed.
func (p *pipeline) window(next rowSink) rowSink {
	offset, limit := p.q.Offset, p.q.Limit
	skipped, emitted := 0, 0
	return func(r []store.ID) bool {
		if skipped < offset {
			skipped++
			return true
		}
		if limit >= 0 && emitted >= limit {
			return false
		}
		emitted++
		return next(r) && (limit < 0 || emitted < limit)
	}
}

// project materializes the projected variables of a row; SELECT * keeps
// every bound variable.
func (p *pipeline) project(r []store.ID) Binding {
	if p.q.Star {
		return p.ex.materialize(r)
	}
	b := make(Binding, len(p.vars))
	for j, s := range p.projSlots {
		if s >= 0 && r[s] != store.NoID {
			b[p.vars[j]] = p.ex.term(r[s])
		}
	}
	return b
}

// streamYield receives one pipeline row plus the first scratch level the
// continuation may use (levels below it belong to live ancestor frames).
type streamYield func(r []store.ID, free int) bool

// streamExec drives a compiled plan depth-first, one row at a time. Row
// copies live in a per-level scratch stack: a frame at level d only ever
// writes levels ≥ d, so a parent's row is stable while its descendants
// iterate.
type streamExec struct {
	ctx    context.Context
	ex     *idExec
	levels [][]store.ID
	frames []*matchFrame
	orders map[*cBGP][]int
	minus  map[*cMinus]*rowbuf
	prof   *profiler // counts per-node traffic when non-nil
	tick   int
	err    error
}

// scratch returns the reusable row buffer for scratch level d.
func (s *streamExec) scratch(d int) []store.ID {
	for len(s.levels) <= d {
		s.levels = append(s.levels, make([]store.ID, s.ex.nslots))
	}
	return s.levels[d]
}

// matchFrame is the index-scan callback of a pattern join writing
// scratch level d. Its func value is bound once, when the level is first
// used, so a scan allocates nothing; reusing it is safe because the
// frame's descendants only use levels above d, so two live scans never
// share a frame.
type matchFrame struct {
	s     *streamExec
	nr    []store.ID // scratch level d
	b     *cBGP
	order []int
	k     int
	row   []store.ID
	free  int
	yield streamYield
	en    *ExplainNode
	cont  bool
	fn    func(ms, mp, mo store.ID) bool
}

// frame returns the match frame for scratch level d.
func (s *streamExec) frame(d int) *matchFrame {
	for len(s.frames) <= d {
		f := &matchFrame{s: s, nr: s.scratch(len(s.frames))}
		f.fn = f.match
		s.frames = append(s.frames, f)
	}
	return s.frames[d]
}

// match extends the frame's row with one index match and recurses into
// the next pattern.
func (f *matchFrame) match(ms, mp, mo store.ID) bool {
	s := f.s
	if !s.tickOK() {
		f.cont = false
		return false
	}
	p := &f.b.pats[f.order[f.k]]
	nr := f.nr
	copy(nr, f.row)
	if bindPos(p.s, ms, nr) && bindPos(p.p, mp, nr) && bindPos(p.o, mo, nr) {
		if f.en != nil {
			f.en.RowsOut++
		}
		if !s.streamPatterns(f.b, f.order, f.k+1, nr, f.free+1, f.yield) {
			f.cont = false
			return false
		}
	}
	return true
}

// tickOK samples the context during index scans so a cancellation is
// noticed even while no row is reaching the consumer.
func (s *streamExec) tickOK() bool {
	s.tick++
	if s.tick&255 == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return false
		}
	}
	return true
}

func (s *streamExec) streamGroup(g *cgroup, row []store.ID, free int, yield streamYield) bool {
	if en := s.prof.enterNode(g); en != nil {
		yield = countOut(en, yield)
	}
	return s.streamElems(g, 0, row, free, yield)
}

func (s *streamExec) streamElems(g *cgroup, i int, row []store.ID, free int, yield streamYield) bool {
	if s.err != nil {
		return false
	}
	if i == len(g.elems) {
		if len(g.filters) == 0 {
			return yield(row, free)
		}
		en := s.prof.enterNode(&g.filters)
		for _, f := range g.filters {
			ok, err := evalBool(f.expr, s.ex.bindScratch(f.vars, row))
			if err != nil || !ok {
				return true // row filtered out; keep streaming
			}
		}
		if en != nil {
			en.RowsOut++
		}
		return yield(row, free)
	}
	return s.streamNode(g.elems[i], row, free, func(r []store.ID, f int) bool {
		return s.streamElems(g, i+1, r, f, yield)
	})
}

func (s *streamExec) streamNode(n cnode, row []store.ID, free int, yield streamYield) bool {
	if g, ok := n.(*cgroup); ok {
		return s.streamGroup(g, row, free, yield)
	}
	if en := s.prof.enterNode(n); en != nil {
		yield = countOut(en, yield)
	}
	switch x := n.(type) {
	case *cBGP:
		return s.streamPatterns(x, s.bgpOrder(x, row), 0, row, free, yield)
	case *cOptional:
		matched := false
		if !s.streamGroup(x.inner, row, free, func(r []store.ID, f int) bool {
			matched = true
			return yield(r, f)
		}) {
			return false
		}
		if !matched {
			return yield(row, free)
		}
		return true
	case *cUnion:
		if !s.streamGroup(x.left, row, free, yield) {
			return false
		}
		return s.streamGroup(x.right, row, free, yield)
	case *cMinus:
		right := s.minusRight(x, free)
		for j := 0; j < right.n; j++ {
			rr := right.row(j)
			shared, equal := false, true
			for sl := range row {
				if row[sl] != store.NoID && rr[sl] != store.NoID {
					shared = true
					if row[sl] != rr[sl] {
						equal = false
						break
					}
				}
			}
			if shared && equal {
				return true // row removed; keep streaming
			}
		}
		return yield(row, free)
	case *cBind:
		nr := s.scratch(free)
		copy(nr, row)
		if t, err := evalExpr(x.expr, s.ex.bindScratch(x.vars, row)); err == nil {
			nr[x.slot] = s.ex.intern(t)
		}
		return yield(nr, free+1)
	case *cValues:
		for _, vr := range x.rows {
			nr := s.scratch(free)
			copy(nr, row)
			ok := true
			for j, slot := range x.slots {
				v := vr[j]
				if v == store.NoID {
					continue // UNDEF
				}
				if cur := nr[slot]; cur != store.NoID {
					if cur != v {
						ok = false
						break
					}
				} else {
					nr[slot] = v
				}
			}
			if ok && !yield(nr, free+1) {
				return false
			}
		}
		return true
	}
	return true
}

// bgpOrder computes (once per node) the greedy join order, seeded with
// the bound slots of the first row to reach the node: connected patterns
// first (a disconnected one builds a cartesian product), then the
// smallest estimated cardinality.
func (s *streamExec) bgpOrder(b *cBGP, row []store.ID) []int {
	if o, ok := s.orders[b]; ok {
		return o
	}
	bound := make([]bool, s.ex.nslots)
	for sl, v := range row {
		if v != store.NoID {
			bound[sl] = true
		}
	}
	n := len(b.pats)
	used := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		first := len(order) == 0
		best, bestCard, bestConn := -1, 0, false
		for i := range b.pats {
			if used[i] {
				continue
			}
			p := &b.pats[i]
			conn := first
			for _, sl := range p.slots {
				if bound[sl] {
					conn = true
					break
				}
			}
			card := s.ex.estimate(p, bound)
			if best == -1 || (conn && !bestConn) || (conn == bestConn && card < bestCard) {
				best, bestCard, bestConn = i, card, conn
			}
		}
		used[best] = true
		order = append(order, best)
		for _, sl := range b.pats[best].slots {
			bound[sl] = true
		}
	}
	s.orders[b] = order
	s.prof.patternOrder(b, order)
	return order
}

// streamPatterns is the depth-first index nested-loop join: pattern k
// extends the row with each of its matches and recurses into k+1, so a
// complete solution reaches the consumer as soon as the last pattern
// matches — the early-exit path LIMIT and cancellation ride on.
func (s *streamExec) streamPatterns(b *cBGP, order []int, k int, row []store.ID, free int, yield streamYield) bool {
	if k == len(order) {
		return yield(row, free)
	}
	p := &b.pats[order[k]]
	en := s.prof.enterNode(p)
	var pat store.IDPattern
	sConc := resolvePos(p.s, row, &pat.S)
	pConc := resolvePos(p.p, row, &pat.P)
	oConc := resolvePos(p.o, row, &pat.O)
	if pat.S > s.ex.maxStore || pat.P > s.ex.maxStore || pat.O > s.ex.maxStore {
		return true // locally-interned term: cannot match the store
	}
	if sConc && pConc && oConc {
		if !s.tickOK() {
			return false
		}
		if s.ex.rd.HasID(pat.S, pat.P, pat.O) {
			if en != nil {
				en.RowsOut++
			}
			return s.streamPatterns(b, order, k+1, row, free, yield)
		}
		return true
	}
	f := s.frame(free)
	f.b, f.order, f.k, f.row, f.free, f.yield, f.en, f.cont = b, order, k, row, free, yield, en, true
	s.ex.rd.MatchIDs(pat, f.fn)
	return f.cont
}

// minusRight collects (once per node) the right side of a MINUS,
// evaluated uncorrelated from an empty row. It runs at the caller's
// scratch level, so the rows of live ancestor frames stay intact.
func (s *streamExec) minusRight(x *cMinus, free int) *rowbuf {
	if r, ok := s.minus[x]; ok {
		return r
	}
	rb := &rowbuf{stride: s.ex.nslots}
	s.streamGroup(x.inner, make([]store.ID, s.ex.nslots), free, func(r []store.ID, _ int) bool {
		rb.add(r)
		return true
	})
	s.minus[x] = rb
	return rb
}
