package sparql

// EXPLAIN support: Query.Explain runs the query through the same
// pipeline as Stream and Exec with a profiler attached, producing the
// compiled plan tree annotated with exact per-node call and row counts
// plus the sequence of stages the solutions passed (where → aliases →
// group → order → distinct → window → project, each named after the
// operator that ran). The final stage's RowsOut always equals the number
// of rows the same query actually returns, so an explain can be checked
// against a real execution row for row.
//
// The profiler is a nil-by-default field of the pipeline: every hook is
// a single pointer check, and the counting wrappers are only built when
// a profiler is attached, so the unprofiled path stays at full speed.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/store"
)

// ExplainNode annotates one compiled plan node.
type ExplainNode struct {
	// Kind is the node type: group, bgp, pattern, filter, optional,
	// union, minus, bind, values.
	Kind string `json:"kind"`
	// Detail is a human-readable rendering (the triple pattern, the
	// bound variable, ...).
	Detail string `json:"detail,omitempty"`
	// Order is the 1-based position the greedy optimizer chose for a
	// pattern within its BGP (0 for non-pattern nodes).
	Order int `json:"order,omitempty"`
	// Calls counts node invocations: the streaming operators run a node
	// once per input row, so an OPTIONAL inner group runs once per outer
	// row.
	Calls int64 `json:"calls,omitempty"`
	// RowsIn / RowsOut accumulate rows entering and leaving the node
	// across all invocations.
	RowsIn   int64          `json:"rowsIn"`
	RowsOut  int64          `json:"rowsOut"`
	Children []*ExplainNode `json:"children,omitempty"`
}

// ExplainStage is one top-level execution stage.
type ExplainStage struct {
	Name    string `json:"name"`
	RowsIn  int64  `json:"rowsIn"`
	RowsOut int64  `json:"rowsOut"`
	// TimeNs is the stage's own wall time: streamed stages interleave,
	// and each is charged only while a row is inside it.
	TimeNs int64 `json:"timeNs"`
}

// Explain is the per-query profile returned instead of rows.
type Explain struct {
	// Form is the query form: SELECT, ASK, or CONSTRUCT.
	Form string `json:"form"`
	// Vars is the projected variable list (SELECT only).
	Vars []string `json:"vars,omitempty"`
	// Rows is the number of rows the query produced (1/0 for ASK,
	// triple count for CONSTRUCT).
	Rows int `json:"rows"`
	// PlanningNs is the time spent compiling the plan.
	PlanningNs int64 `json:"planningNs"`
	// ExecNs is the total execution time, planning included.
	ExecNs int64 `json:"execNs"`
	// Plan is the compiled pattern tree with per-node profile.
	Plan *ExplainNode `json:"plan,omitempty"`
	// Stages are the top-level execution stages in run order; the last
	// stage's rowsOut equals Rows.
	Stages []ExplainStage `json:"stages,omitempty"`
}

// profiler accumulates the per-node and per-stage profile during one
// profiled execution. A nil *profiler disables every hook.
type profiler struct {
	nodes  map[any]*ExplainNode // cnode, *cpattern or a group's *[]cfilter → its annotation
	stages []ExplainStage
	cur    int       // the stage the clock is charging
	last   time.Time // when the clock last switched stages
	plan   *ExplainNode
	planNs int64
}

func newProfiler() *profiler {
	return &profiler{nodes: make(map[any]*ExplainNode)}
}

// enterNode counts one invocation of a plan node with one input row and
// returns its annotation; nil without a profiler.
func (p *profiler) enterNode(key any) *ExplainNode {
	if p == nil {
		return nil
	}
	en := p.nodes[key]
	if en != nil {
		en.Calls++
		en.RowsIn++
	}
	return en
}

// countOut wraps yield so every row a node emits counts toward its
// RowsOut.
func countOut(en *ExplainNode, yield streamYield) streamYield {
	return func(r []store.ID, free int) bool {
		en.RowsOut++
		return yield(r, free)
	}
}

// patternOrder records the greedy join order chosen for a BGP.
func (p *profiler) patternOrder(b *cBGP, order []int) {
	if p == nil {
		return
	}
	for k, i := range order {
		if en := p.nodes[&b.pats[i]]; en != nil {
			en.Order = k + 1
		}
	}
}

// addStage registers the next stage in run order with in rows already
// counted, and returns its index; -1 without a profiler. The clock
// starts with the first stage.
func (p *profiler) addStage(name string, in int64) int {
	if p == nil {
		return -1
	}
	if len(p.stages) == 0 {
		p.last = time.Now()
	}
	p.stages = append(p.stages, ExplainStage{Name: name, RowsIn: in})
	return len(p.stages) - 1
}

// enter charges the time since the last switch to the running stage,
// makes stage i the running one, and returns the stage it replaced.
func (p *profiler) enter(i int) int {
	if p == nil {
		return -1
	}
	now := time.Now()
	p.stages[p.cur].TimeNs += now.Sub(p.last).Nanoseconds()
	p.last = now
	prev := p.cur
	p.cur = i
	return prev
}

// begin registers and enters a blocking stage over in collected rows.
func (p *profiler) begin(name string, in int) {
	if p != nil {
		p.enter(p.addStage(name, int64(in)))
	}
}

// meter wraps the row sink of stage i: each row handed to it counts as
// one of the stage's RowsIn, and the stage is charged until it hands the
// row on or drops it. Without a profiler sink comes back unwrapped.
func (p *profiler) meter(i int, sink rowSink) rowSink {
	if p == nil {
		return sink
	}
	return func(r []store.ID) bool {
		p.stages[i].RowsIn++
		prev := p.enter(i)
		ok := sink(r)
		p.enter(prev)
		return ok
	}
}

// finish stops the clock and derives each stage's RowsOut from the next
// stage's RowsIn; the last stage produced out rows.
func (p *profiler) finish(out int64) {
	if len(p.stages) == 0 {
		return
	}
	p.enter(p.cur)
	for i := 0; i+1 < len(p.stages); i++ {
		p.stages[i].RowsOut = p.stages[i+1].RowsIn
	}
	p.stages[len(p.stages)-1].RowsOut = out
}

// build constructs the annotated plan tree mirroring the compiled
// algebra and indexes every node for the execution hooks.
func (p *profiler) build(root *cgroup, ex *idExec) {
	p.plan = p.buildGroup(root, ex)
}

func (p *profiler) buildGroup(g *cgroup, ex *idExec) *ExplainNode {
	en := &ExplainNode{Kind: "group"}
	p.nodes[g] = en
	for _, el := range g.elems {
		en.Children = append(en.Children, p.buildNode(el, ex))
	}
	if len(g.filters) > 0 {
		fn := &ExplainNode{Kind: "filter", Detail: fmt.Sprintf("%d condition(s)", len(g.filters))}
		p.nodes[&g.filters] = fn
		en.Children = append(en.Children, fn)
	}
	return en
}

func (p *profiler) buildNode(n cnode, ex *idExec) *ExplainNode {
	switch x := n.(type) {
	case *cBGP:
		en := &ExplainNode{Kind: "bgp"}
		p.nodes[x] = en
		for i := range x.pats {
			pat := &x.pats[i]
			pn := &ExplainNode{Kind: "pattern", Detail: renderPattern(pat, ex)}
			p.nodes[pat] = pn
			en.Children = append(en.Children, pn)
		}
		return en
	case *cgroup:
		return p.buildGroup(x, ex)
	case *cOptional:
		en := &ExplainNode{Kind: "optional"}
		p.nodes[x] = en
		en.Children = append(en.Children, p.buildGroup(x.inner, ex))
		return en
	case *cUnion:
		en := &ExplainNode{Kind: "union"}
		p.nodes[x] = en
		en.Children = append(en.Children, p.buildGroup(x.left, ex), p.buildGroup(x.right, ex))
		return en
	case *cMinus:
		en := &ExplainNode{Kind: "minus"}
		p.nodes[x] = en
		en.Children = append(en.Children, p.buildGroup(x.inner, ex))
		return en
	case *cBind:
		en := &ExplainNode{Kind: "bind", Detail: "?" + slotName(ex, x.slot)}
		p.nodes[x] = en
		return en
	case *cValues:
		en := &ExplainNode{Kind: "values", Detail: fmt.Sprintf("%d row(s)", len(x.rows))}
		p.nodes[x] = en
		return en
	}
	return &ExplainNode{Kind: "unknown"}
}

func slotName(ex *idExec, slot int) string {
	if slot >= 0 && slot < len(ex.names) {
		return ex.names[slot]
	}
	return fmt.Sprintf("slot%d", slot)
}

func renderPattern(p *cpattern, ex *idExec) string {
	var sb strings.Builder
	pos := func(t cterm) {
		if t.isVar() {
			sb.WriteByte('?')
			sb.WriteString(slotName(ex, t.slot))
			return
		}
		sb.WriteString(ex.term(t.id).String())
	}
	pos(p.s)
	sb.WriteByte(' ')
	pos(p.p)
	sb.WriteByte(' ')
	pos(p.o)
	return sb.String()
}

// Explain executes the query against st with profiling and returns the
// annotated plan instead of rows.
func (q *Query) Explain(st store.Queryable) (*Explain, error) {
	t0 := time.Now()
	p, err := q.compile(context.Background(), st)
	if err != nil {
		return nil, err
	}
	prof := newProfiler()
	prof.planNs = time.Since(t0).Nanoseconds()
	prof.build(p.root, p.ex)
	p.prof, p.se.prof = prof, prof
	rs, err := p.rowSeq()
	if err != nil {
		return nil, err
	}
	res, err := rs.Collect()
	if err != nil {
		return nil, err
	}
	rows := resultRows(res)
	prof.finish(int64(rows))
	return &Explain{
		Form:       q.Form.String(),
		Vars:       res.Vars,
		Rows:       rows,
		PlanningNs: prof.planNs,
		ExecNs:     time.Since(t0).Nanoseconds(),
		Plan:       prof.plan,
		Stages:     prof.stages,
	}, nil
}

func resultRows(res *Result) int {
	switch {
	case res.Ask:
		if res.Boolean {
			return 1
		}
		return 0
	case res.Graph != nil:
		return res.Graph.Len()
	}
	return len(res.Rows)
}

// String returns the SPARQL keyword of the query form.
func (f Form) String() string {
	switch f {
	case FormAsk:
		return "ASK"
	case FormConstruct:
		return "CONSTRUCT"
	default:
		return "SELECT"
	}
}
