package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of
// vs by the method Python's statistics.quantiles(vs, n=4) uses
// (exclusive: position i*(n+1)/4 in the sorted sample, interpolated),
// so a spread computed here agrees with one computed from the printed
// values. One value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// iqrShare is the distance between the quartiles as a share of the
// median: the spread the benchmark's bounds are judged against.
func iqrShare(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// tailLadder lists the percentiles a latency tail may be reported at,
// highest first.
var tailLadder = []float64{0.99, 0.98, 0.95, 0.90, 0.75, 0.50}

// tailQuantile picks the highest percentile of tailLadder that still
// has at least ten of n samples beyond it; a percentile with fewer is
// one or two requests, not a distribution. Below twenty samples even
// the median does not qualify and the median is what is reported.
func tailQuantile(n uint64) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.50
}

// latencies summarises one class's simulated latency distribution.
type latencies struct {
	n        uint64
	p50, p99 time.Duration
	// tailQ is the percentile p99 actually holds: 0.99 when at least ten
	// samples lie beyond it, otherwise the highest rung of tailLadder
	// that satisfies that.
	tailQ float64
}

// summarise takes exact nearest-rank percentiles of the samples.
func summarise(samples []time.Duration) latencies {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return latencies{tailQ: 0.50}
	}
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(n))) - 1
		return s[max(0, min(n-1, i))]
	}
	q := tailQuantile(uint64(n))
	return latencies{n: uint64(n), p50: rank(0.50), p99: rank(q), tailQ: q}
}
