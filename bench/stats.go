package main

import (
	"math"
	"sort"
	"time"
)

// sample is a bag of timings (or any scalar observations) from which the
// benchmark reports medians and tail percentiles.
type sample []float64

// millis is d in the benchmark's unit of latency.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sorted returns an ascending copy.
func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample: the smallest value with at least p of the sample at or
// below it. An empty sample yields 0.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// median sorts a copy; for the small per-probe samples of the traced run.
func median(v []float64) float64 { return sample(v).sorted().percentile(0.5) }

// tailCandidates are the percentiles a tail may be reported at.
var tailCandidates = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many observations must lie beyond a percentile before
// it is reported: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// pickTail returns the highest candidate percentile that still has at
// least minBeyond of n observations beyond it, or 0 when even the median
// does not (n < 20).
func pickTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

// spread is the interquartile distance of v as a share of its median, the
// run-to-run noise figure the selfcheck compares against a metric's bound.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sample(v).sorted()
	q1, q3 := quartiles(s)
	m := s.percentile(0.5)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// quartiles follows Python's statistics.quantiles(v, n=4) (exclusive
// method), which is what the driver applies to the ten runs of a set.
func quartiles(s sample) (q1, q3 float64) {
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
