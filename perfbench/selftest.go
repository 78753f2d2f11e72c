package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelfTest runs every workload for a couple of seconds, untraced and
// traced, and checks the harness itself: every metric BENCHMARK.json
// names is printed with its unit, nothing fails on a correct server, and
// a corrupted expected answer is counted as a failure.
func runSelfTest(o *options) int {
	raw, err := os.ReadFile(o.specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selftest:", err)
		return 1
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: BENCHMARK.json:", err)
		return 1
	}
	ok := true
	check := func(cond bool, format string, args ...any) {
		status := "PASS"
		if !cond {
			status, ok = "FAIL", false
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}
	short := func(workload string, trace bool) *options {
		c := *o
		c.workload, c.trace = workload, trace
		c.seconds, c.dur, c.warmup, c.setupReps = 2, 2*time.Second, 500*time.Millisecond, 1
		return &c
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(short(w.Name, trace))
			check(err == nil, "%s trace=%v runs: %v", w.Name, trace, err)
			if err != nil {
				continue
			}
			for _, m := range want {
				got, present := res.Metrics[m.Name]
				check(present && got.Unit == m.Unit, "%s trace=%v prints %s in %s", w.Name, trace, m.Name, m.Unit)
			}
			check(len(res.Metrics) == len(want), "%s trace=%v prints exactly the %d declared metrics (got %d)", w.Name, trace, len(want), len(res.Metrics))
			check(res.Failed == 0, "%s trace=%v error_rate = 0 (%d of %d failed %v)", w.Name, trace, res.Failed, res.Attempted, res.errs)
		}
	}
	bad := short("sparql-read", false)
	bad.corrupt = true
	res, err := run(bad)
	check(err == nil && res.Failed > 0 && !res.Correct, "a corrupted expected answer raises error_rate (%d of %d failed)", failedOf(res), attemptedOf(res))
	if !ok {
		return 1
	}
	return 0
}

func failedOf(r *result) int {
	if r == nil {
		return 0
	}
	return r.Failed
}

func attemptedOf(r *result) int {
	if r == nil {
		return 0
	}
	return r.Attempted
}
