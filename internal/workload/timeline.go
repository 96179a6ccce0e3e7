package workload

import (
	"fmt"
	"strings"
	"time"

	"meshlayer/internal/hdr"
)

// Timeline records request completions in fixed time buckets: a
// latency distribution and an error count per bucket. Per-interval
// percentiles give the "latency over time" view that makes transient
// events (a partition, a config push, an arriving batch job) visible
// where a whole-run histogram would smear them out, and per-interval
// outcome counts score a fault scenario's availability and
// time-to-recovery. Bucket i holds the completions at t with
// int((t-start)/bucket) == i.
type Timeline struct {
	bucket  time.Duration
	start   time.Duration
	buckets []*timeBucket
}

type timeBucket struct {
	hist   hdr.Histogram
	errors uint64
}

// NewTimeline returns a timeline with the given bucket width, starting
// at time start.
func NewTimeline(start, bucket time.Duration) *Timeline {
	if bucket <= 0 {
		panic("workload: timeline bucket must be positive")
	}
	return &Timeline{bucket: bucket, start: start}
}

// index returns the bucket index of time t.
func (tl *Timeline) index(t time.Duration) int { return int((t - tl.start) / tl.bucket) }

// Observe records one request completion at time at: its latency when
// it was served, an error when it failed. Its signature is
// Spec.OnComplete's, so a method value plugs in there.
func (tl *Timeline) Observe(at, latency time.Duration, failed bool) {
	idx := max(tl.index(at), 0)
	for len(tl.buckets) <= idx {
		tl.buckets = append(tl.buckets, &timeBucket{})
	}
	b := tl.buckets[idx]
	if failed {
		b.errors++
		return
	}
	b.hist.RecordDuration(latency)
}

// counts returns bucket i's served and failed completions; a bucket
// out of range holds none.
func (tl *Timeline) counts(i int) (ok, fail uint64) {
	if i < 0 || i >= len(tl.buckets) {
		return 0, 0
	}
	b := tl.buckets[i]
	return b.hist.Count(), b.errors
}

// Counts returns the (served, failed) completion totals of the buckets
// from the one holding from up to the last that starts before to — for
// availability over a window, weighting each stream by its traffic.
func (tl *Timeline) Counts(from, to time.Duration) (ok, fail uint64) {
	for i := tl.index(from); tl.start+time.Duration(i)*tl.bucket < to; i++ {
		o, f := tl.counts(i)
		ok += o
		fail += f
	}
	return ok, fail
}

// RecoveryTime returns how long after from the timeline first shows
// clean consecutive failure-free buckets — a scenario's
// time-to-recovery for a fault injected at from. Buckets with no
// completions count as clean. ok=false means no such run completes
// by the last bucket.
func (tl *Timeline) RecoveryTime(from time.Duration, clean int) (time.Duration, bool) {
	clean = max(clean, 1)
	run := 0
	for i := tl.index(from); i <= max(len(tl.buckets)-1, 0); i++ {
		if _, fail := tl.counts(i); fail > 0 {
			run = 0
			continue
		}
		if run++; run >= clean {
			// Recovery is the start of the clean run.
			head := tl.start + time.Duration(i-clean+1)*tl.bucket
			return max(head-from, 0), true
		}
	}
	return 0, false
}

// Len returns the number of buckets materialized so far.
func (tl *Timeline) Len() int { return len(tl.buckets) }

// Point is one timeline bucket's summary.
type Point struct {
	Start    time.Duration
	Count    uint64
	Errors   uint64
	P50, P99 time.Duration
}

// Points summarizes all buckets in order.
func (tl *Timeline) Points() []Point {
	out := make([]Point, len(tl.buckets))
	for i, b := range tl.buckets {
		out[i] = Point{
			Start:  tl.start + time.Duration(i)*tl.bucket,
			Count:  b.hist.Count(),
			Errors: b.errors,
			P50:    b.hist.QuantileDuration(0.50),
			P99:    b.hist.QuantileDuration(0.99),
		}
	}
	return out
}

// CSV renders the timeline for external plotting.
func (tl *Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("t_s,count,errors,p50_ms,p99_ms\n")
	for _, p := range tl.Points() {
		fmt.Fprintf(&b, "%.1f,%d,%d,%.3f,%.3f\n",
			p.Start.Seconds(), p.Count, p.Errors,
			float64(p.P50)/float64(time.Millisecond),
			float64(p.P99)/float64(time.Millisecond))
	}
	return b.String()
}
