package main

import (
	"math"
	"sort"
)

// sample is one timed latency with the op classes it counts toward.
type sample struct {
	ns  int64
	tag uint8
}

// Sample tags. Light and heavy are the workload's cheap and expensive
// op class (spec.go); read and write feed the read_*/write_* aliases.
const (
	tagLight uint8 = 1 << iota
	tagHeavy
	tagRead
	tagWrite
)

// pick returns the sorted latencies, in ns, of the samples carrying tag.
func pick(samples []sample, tag uint8) []int64 {
	var out []int64
	for _, s := range samples {
		if s.tag&tag != 0 {
			out = append(out, s.ns)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of sorted values; 0 when empty.
func median(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

// tail returns the highest percentile of sorted that still has at least
// ten samples beyond it, and which percentile that is (0 when there are
// too few samples for any).
func tail(sorted []int64) (value float64, pct float64) {
	n := len(sorted)
	if n < 20 {
		return 0, 0
	}
	for _, p := range []float64{99.99, 99.9, 99, 95, 90} {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if n-1-idx >= 10 {
			return float64(sorted[idx]), p
		}
	}
	return 0, 0
}

func medianF(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(vals,
// n=4) does (the exclusive method) — the driver's definition.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	m := medianF(vals)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}
