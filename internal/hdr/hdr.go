// Package hdr implements a high-dynamic-range histogram for latency
// recording, in the spirit of HdrHistogram: log-scaled buckets with
// linear sub-buckets give a bounded relative error (~3%) across the
// full range of int64 values, with O(1) recording.
//
// The workload generator records every request's latency here, so
// percentile queries (p50/p99) over millions of samples are exact up to
// bucket resolution with no reservoir sampling bias — the property that
// makes wrk2-style tail-latency reporting trustworthy.
//
// Memory is bounded by the octaves a histogram has seen, not by its
// range: each power of two of values is a 512 B row of counts,
// allocated the first time a sample lands in it, under a 504 B header.
// A latency histogram spanning a few octaves holds about 3 KB; one
// touching all 59 octaves holds the dense 30 KB, never more.
package hdr

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// subBits sets sub-bucket resolution: 2^subBits linear sub-buckets per
// octave, bounding relative error at 2^-subBits (~1.6%).
const subBits = 6

const subCount = 1 << subBits

// maxBuckets covers int64's full positive range.
const maxBuckets = 64 - subBits + 1

// Histogram records non-negative int64 values. The zero value is ready
// to use.
type Histogram struct {
	// rows[b] holds octave b's sub-bucket counts, nil until a sample
	// lands in it.
	rows  [maxBuckets]*[subCount]uint64
	total uint64
	sum   int64
	min   int64
	max   int64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// Record adds a value. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b, s := bucketOf(v)
	h.row(b)[s]++
	h.total++
	h.sum += v
	if h.total == 1 {
		h.min, h.max = v, v
		return
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// row returns octave b's counts, allocating them on first use.
func (h *Histogram) row(b int) *[subCount]uint64 {
	r := h.rows[b]
	if r == nil {
		r = new([subCount]uint64)
		h.rows[b] = r
	}
	return r
}

// RecordDuration adds a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

func bucketOf(v int64) (bucket, sub int) {
	if v < subCount {
		return 0, int(v)
	}
	b := bits.Len64(uint64(v)) - subBits
	return b, int(v >> uint(b)) // in [subCount/2, subCount)
}

// valueOf reconstructs a representative (midpoint) value for a bucket.
func valueOf(bucket, sub int) int64 {
	if bucket == 0 {
		return int64(sub)
	}
	base := int64(sub) << uint(bucket)
	return base + (1 << uint(bucket-1)) // midpoint of the bucket span
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Quantile returns the value at quantile q in [0, 1]; q outside the
// range is clamped. Empty histograms return 0. The answer is exact up
// to bucket resolution, and exact at the extremes (true min/max).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for b, r := range h.rows {
		if r == nil {
			continue
		}
		for s, c := range r {
			if c == 0 {
				continue
			}
			seen += c
			if seen > rank {
				v := valueOf(b, s)
				if v < h.min {
					v = h.min
				}
				if v > h.max {
					v = h.max
				}
				return v
			}
		}
	}
	return h.max
}

// QuantileDuration returns Quantile as a time.Duration.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// Merge adds other's samples into h. Min/max/sum merge exactly.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for b, src := range other.rows {
		if src == nil {
			continue
		}
		dst := h.row(b)
		for s, c := range src {
			dst[s] += c
		}
	}
	if h.total == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset clears all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary renders count/mean and standard percentiles as durations —
// the wrk2-style report line.
func (h *Histogram) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%v", h.total, time.Duration(h.Mean()))
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
		fmt.Fprintf(&b, " p%g=%v", q*100, h.QuantileDuration(q))
	}
	fmt.Fprintf(&b, " max=%v", time.Duration(h.Max()))
	return b.String()
}
