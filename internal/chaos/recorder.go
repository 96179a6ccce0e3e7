package chaos

import "time"

// Recorder buckets request completions on the virtual clock so a
// scenario can be scored for availability and time-to-recovery. Its
// Observe matches the workload package's observer signature — plug it
// into a workload's OnComplete / MixedConfig observer.
type Recorder struct {
	bucket  time.Duration
	buckets map[int]*bucketCounts
	maxIdx  int
}

type bucketCounts struct {
	ok   uint64
	fail uint64
}

// NewRecorder builds a recorder with the given bucket width.
func NewRecorder(bucket time.Duration) *Recorder {
	if bucket <= 0 {
		panic("chaos: recorder bucket must be > 0")
	}
	return &Recorder{bucket: bucket, buckets: make(map[int]*bucketCounts)}
}

// Observe records one request completion at virtual time at.
func (r *Recorder) Observe(at, latency time.Duration, failed bool) {
	_ = latency
	i := int(at / r.bucket)
	b := r.buckets[i]
	if b == nil {
		b = &bucketCounts{}
		r.buckets[i] = b
	}
	if failed {
		b.fail++
	} else {
		b.ok++
	}
	if i > r.maxIdx {
		r.maxIdx = i
	}
}

// Counts returns the (ok, failed) completion totals over [from, to) —
// the raw numbers behind ErrorRate, for availability computations that
// need to weight windows by their traffic.
func (r *Recorder) Counts(from, to time.Duration) (ok, fail uint64) {
	for i := int(from / r.bucket); time.Duration(i)*r.bucket < to; i++ {
		if b := r.buckets[i]; b != nil {
			ok += b.ok
			fail += b.fail
		}
	}
	return ok, fail
}

// ErrorRate returns failed/total over [from, to) (0 when no samples).
func (r *Recorder) ErrorRate(from, to time.Duration) float64 {
	ok, fail := r.Counts(from, to)
	if ok+fail == 0 {
		return 0
	}
	return float64(fail) / float64(ok+fail)
}

// RecoveryTime returns how long after `from` the stream first shows
// `clean` consecutive failure-free buckets — the scenario's
// time-to-recovery for a fault injected at `from`. Buckets with no
// samples count as clean. ok=false means service never recovered
// within the recorded window.
func (r *Recorder) RecoveryTime(from time.Duration, clean int) (time.Duration, bool) {
	if clean <= 0 {
		clean = 1
	}
	start := int(from / r.bucket)
	run := 0
	for i := start; i <= r.maxIdx; i++ {
		b := r.buckets[i]
		if b == nil || b.fail == 0 {
			run++
			if run >= clean {
				// Recovery is the start of the clean run.
				head := i - clean + 1
				d := time.Duration(head)*r.bucket - from
				if d < 0 {
					d = 0
				}
				return d, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}
