// Command perfbench is the repository benchmark: it runs the real hbold
// binary (serve or sparqld) as a child process, drives it over loopback
// HTTP from this single load-generator process, checks every answer, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of an in-process traced replay) as one JSON line.
//
//	perfbench -workload explore|sparql-read|sparql-live -seed N -seconds S -trace 0|1 -hbold PATH -work DIR
//	perfbench -selftest -hbold PATH -work DIR
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	hbold     string
	work      string
	dur       time.Duration // measured window
	warmup    time.Duration
	setupReps int
	corrupt   bool   // self-test: corrupt every 50th expected answer
	specPath  string // BENCHMARK.json, for the self-test
	liveTier  string // sparql-live's tier: disk, or memory to reproduce its crash
	spans     string // directory the traced run writes its spans to
}

// result is the benchmark's output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	extra     metrics // reported on the report line only
	errs      []string
}

func newResult() *result { return &result{Metrics: metrics{}, extra: metrics{}} }

func (r *result) absorb(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.errs = append(r.errs, t.errs...)
}

// tailPercentile is the fixed tail percentile each workload reports as
// read_tail_ms: the highest of p99/p95/p90 that leaves at least 10
// samples beyond it in one latency window at the workload's usual
// sample count.
var tailPercentile = map[string]int{
	"explore":     95,
	"sparql-read": 99,
	"sparql-live": 95,
}

// latencyWindows is how many time windows a workload's latency figures
// are taken over (the median of the per-window values is reported).
var latencyWindows = map[string]int{
	"explore":     16,
	"sparql-read": 8,
	"sparql-live": 8,
}

// e2e fills the end-to-end metrics from one untraced phase.
func (r *result) e2e(setupS float64, t *tally, elapsed, rssMB float64, workload string) {
	pct := tailPercentile[workload]
	p50, tail, ttfb, rate := t.windowed(latencyWindows[workload], pct)
	m := r.Metrics
	m.set("setup_s", "s", setupS)
	m.set("read_p50_ms", "ms", p50)
	// explore's tail moves by up to 2.5× between runs on a shared 2-CPU
	// host, beyond any bound the gate allows: it is reported, not gated
	r.extra.set("read_tail_ms", "ms", tail)
	m.set("ttfb_p50_ms", "ms", ttfb)
	m.set("read_ops_per_s", "1/s", rate)
	r.extra.set("goodput_rps", "1/s", float64(t.inLimit)/elapsed)
	m.set("rss_peak_mb", "MiB", rssMB)
	if len(t.writes) > 0 {
		r.extra.set("write_p50_ms", "ms", t.writes.p50())
		r.extra.set("write_tail_ms", "ms", t.writes.tail(tailPct(len(t.writes))))
		r.extra.set("write_ops_per_s", "1/s", float64(len(t.writes))/elapsed)
	}
	r.extra.set("read_tail_pct", "pct", float64(pct))
	r.extra.set("read_samples", "count", float64(len(t.reads)))
	r.extra.set("write_samples", "count", float64(len(t.writes)))
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "explore, sparql-read or sparql-live")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the dataset and the request stream")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an in-process traced replay")
	flag.StringVar(&o.hbold, "hbold", "", "path to the hbold binary")
	flag.StringVar(&o.work, "work", "", "scratch directory for data and logs")
	selftest := flag.Bool("selftest", false, "run every workload briefly and check the harness itself")
	flag.StringVar(&o.liveTier, "live-tier", "disk", "sparql-live's storage tier: disk, or memory (excluded from the benchmark; reproduces the memory tier's concurrent read/write crash)")
	flag.StringVar(&o.spans, "spans", "", "directory for the traced run's spans (default: -work)")
	flag.StringVar(&o.specPath, "benchmark-json", "BENCHMARK.json", "the benchmark definition the self-test checks against")
	idleSpin := flag.Bool("idle-spin", false, "internal: keep every CPU busy at the SCHED_IDLE policy until killed")
	flag.Parse()
	if *idleSpin {
		spinIdle()
	}
	o.trace = *trace == 1
	if o.work == "" || (o.hbold == "" && !o.trace) {
		fmt.Fprintln(os.Stderr, "perfbench: -work and -hbold are required")
		os.Exit(2)
	}
	if o.spans == "" {
		o.spans = o.work
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *selftest {
		os.Exit(runSelfTest(o))
	}
	o.dur = time.Duration(o.seconds) * time.Second
	o.warmup = time.Second
	o.setupReps = setupReps[o.workload]
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(res)
}

// run executes one workload in the requested mode.
func run(o *options) (*result, error) {
	ctx := context.Background()
	res := newResult()
	var err error
	switch {
	case o.trace:
		err = runTraced(ctx, o, res)
	case o.workload == "explore":
		err = runExplore(ctx, o, res)
	case o.workload == "sparql-read":
		err = runSparqlRead(ctx, o, res)
	case o.workload == "sparql-live":
		err = runSparqlLive(ctx, o, res)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if !o.trace {
		res.extra.set("error_rate", "ratio", float64(res.Failed)/float64(res.Attempted))
	}
	return res, nil
}

// emit prints the human-readable report lines, then the result as the
// last line of stdout.
func emit(res *result) {
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	all := metrics{}
	for k, v := range res.Metrics {
		all[k] = v
	}
	for k, v := range res.extra {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-40s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// setupReps is how many times each workload sets its server up per run;
// setup_s and rss_peak_mb are medians over them. explore repeats less
// because one set-up costs 7–9 s and its peak RSS holds steady.
var setupReps = map[string]int{"explore": 2, "sparql-read": 3, "sparql-live": 3}
