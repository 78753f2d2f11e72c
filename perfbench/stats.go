package main

import (
	"math"
	"sort"
	"time"
)

// samples collects latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile (0..1) by the nearest-rank method on a
// sorted copy; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

// tail returns the workload's fixed tail percentile (99, 95 or 90).
func (s samples) tail(pct int) float64 { return s.quantile(float64(pct) / 100) }

// tailPct picks the highest of p99, p95 and p90 that leaves at least 10
// samples beyond it for n samples; 90 when none does.
func tailPct(n int) int {
	for _, p := range []int{99, 95, 90} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 90
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered-by-name bag of figures.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}
