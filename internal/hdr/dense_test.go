package hdr

import (
	"math"
	"math/rand"
	"testing"
)

// dense is the reference histogram: the fixed layout Histogram used
// before rows were allocated on demand, every octave's counts inline.
// Histogram must answer every query exactly as it does.
type dense struct {
	counts        [maxBuckets][subCount]uint64
	total         uint64
	sum, min, max int64
}

func (d *dense) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b, s := bucketOf(v)
	d.counts[b][s]++
	d.total++
	d.sum += v
	if d.total == 1 {
		d.min, d.max = v, v
		return
	}
	d.min, d.max = min(d.min, v), max(d.max, v)
}

func (d *dense) Merge(o *dense) {
	if o.total == 0 {
		return
	}
	for b := range d.counts {
		for s := range d.counts[b] {
			d.counts[b][s] += o.counts[b][s]
		}
	}
	if d.total == 0 {
		d.min, d.max = o.min, o.max
	} else {
		d.min, d.max = min(d.min, o.min), max(d.max, o.max)
	}
	d.total += o.total
	d.sum += o.sum
}

func (d *dense) Quantile(q float64) int64 {
	if d.total == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	rank := min(uint64(q*float64(d.total)), d.total-1)
	var seen uint64
	for b := 0; b < maxBuckets; b++ {
		for s := 0; s < subCount; s++ {
			seen += d.counts[b][s]
			if d.counts[b][s] > 0 && seen > rank {
				return min(max(valueOf(b, s), d.min), d.max)
			}
		}
	}
	return d.max
}

var refQuantiles = []float64{0, 0.5, 0.9, 0.99, 0.999, 1}

// sameAsDense fails t unless h and d answer every query identically.
func sameAsDense(t *testing.T, what string, h *Histogram, d *dense) {
	t.Helper()
	var mean float64
	var dmin, dmax int64
	if d.total > 0 {
		mean, dmin, dmax = float64(d.sum)/float64(d.total), d.min, d.max
	}
	if h.Count() != d.total || h.Min() != dmin || h.Max() != dmax || h.Mean() != mean || h.Sum() != d.sum {
		t.Fatalf("%s: count/min/max/mean/sum = %d/%d/%d/%v/%d, want %d/%d/%d/%v/%d", what,
			h.Count(), h.Min(), h.Max(), h.Mean(), h.Sum(), d.total, dmin, dmax, mean, d.sum)
	}
	for _, q := range refQuantiles {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, want %d", what, q, got, want)
		}
	}
}

// edgeValues are the values at and around every octave boundary, plus
// zero, negatives and the int64 extremes.
func edgeValues() []int64 {
	vs := []int64{0, -1, -12345, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1}
	for k := 0; k < 63; k++ {
		e := int64(1) << k
		vs = append(vs, e-1, e, e+1)
	}
	return vs
}

// stream is a seeded mix of edge values and values spread log-uniformly
// over the whole int64 range, so most octaves see some samples and the
// sums wrap the way the dense layout's do.
func stream(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vs := edgeValues()
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // a latency-like cluster in a few octaves
			vs = append(vs, 1e6+rng.Int63n(4e6))
		case 1:
			vs = append(vs, -rng.Int63n(1e6))
		default:
			vs = append(vs, rng.Int63n(int64(1)<<rng.Intn(63)+1))
		}
	}
	return vs
}

func TestMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var h Histogram
		var d dense
		sameAsDense(t, "zero value", &h, &d)
		for i, v := range stream(seed, 5000) {
			h.Record(v)
			d.Record(v)
			if i%997 == 0 {
				sameAsDense(t, "recording", &h, &d)
			}
		}
		sameAsDense(t, "recorded", &h, &d)
	}
}

func TestMergeMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var a, b Histogram
		var da, db dense
		for _, v := range stream(seed, 2000) {
			a.Record(v)
			da.Record(v)
		}
		// b covers a narrower range, so some of a's rows are new to it.
		for _, v := range stream(seed+100, 100) {
			b.Record(v >> 20)
			db.Record(v >> 20)
		}

		var empty Histogram
		var dempty dense
		empty.Merge(&a)
		dempty.Merge(&da)
		sameAsDense(t, "merge into empty", &empty, &dempty)

		b.Merge(&a)
		db.Merge(&da)
		sameAsDense(t, "merge into non-empty", &b, &db)
		sameAsDense(t, "merge source untouched", &a, &da)

		b.Merge(&Histogram{})
		b.Merge(nil)
		sameAsDense(t, "merge of nothing", &b, &db)
	}
}

// TestRowsOnDemand pins the memory bound: only the octaves a sample or a
// merge landed in hold a row.
func TestRowsOnDemand(t *testing.T) {
	used := func(h *Histogram) (n int) {
		for _, r := range h.rows {
			if r != nil {
				n++
			}
		}
		return n
	}
	var h Histogram
	if used(&h) != 0 {
		t.Fatal("zero value holds rows")
	}
	h.Record(3)                // octave 0
	h.Record(1 << 20)          // octave 15
	h.Record(1<<20 + 1)        // octave 15 again
	h.Record(int64(1)<<21 - 1) // octave 15, its last sub-bucket
	if got := used(&h); got != 2 {
		t.Fatalf("rows in use = %d, want 2", got)
	}
	var m Histogram
	m.Merge(&h)
	if got := used(&m); got != 2 {
		t.Fatalf("rows in use after merge = %d, want 2", got)
	}
	h.Reset()
	if used(&h) != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset left samples behind")
	}
	if got := used(&m); got != 2 || m.Count() != 4 {
		t.Fatal("reset of the merge source changed the target")
	}
}

func TestRecordTouchedOctaveAllocatesNothing(t *testing.T) {
	var h Histogram
	h.Record(1e6)
	v := int64(1e6)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v ^= 1
	}); n != 0 {
		t.Fatalf("Record into a touched octave: %v allocs, want 0", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]int64, 1024)
	for i := range vs {
		vs[i] = 1e5 + rng.Int63n(1e8) // 100 µs - 100 ms in ns: ten octaves
	}
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vs[i&(len(vs)-1)])
	}
}
