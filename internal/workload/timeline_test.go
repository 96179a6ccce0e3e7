package workload

import (
	"strings"
	"testing"
	"time"

	"meshlayer/internal/app"
)

func TestTimelineBucketsAndPoints(t *testing.T) {
	tl := NewTimeline(0, time.Second)
	tl.Observe(100*time.Millisecond, 5*time.Millisecond, false)
	tl.Observe(900*time.Millisecond, 15*time.Millisecond, false)
	tl.Observe(2500*time.Millisecond, 50*time.Millisecond, false)
	tl.Observe(2600*time.Millisecond, time.Second, true)
	pts := tl.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Count != 2 || pts[1].Count != 0 || pts[2].Count != 1 {
		t.Fatalf("counts: %+v", pts)
	}
	if pts[2].Errors != 1 {
		t.Fatalf("errors: %+v", pts[2])
	}
	if pts[0].P50 < 5*time.Millisecond || pts[0].P99 > 16*time.Millisecond {
		t.Fatalf("bucket0 percentiles: %+v", pts[0])
	}
	if pts[1].Start != time.Second {
		t.Fatalf("bucket start: %v", pts[1].Start)
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := NewTimeline(0, time.Second)
	tl.Observe(0, 10*time.Millisecond, false)
	csv := tl.CSV()
	if !strings.HasPrefix(csv, "t_s,count,errors,p50_ms,p99_ms\n") {
		t.Fatalf("header: %q", csv)
	}
	if !strings.Contains(csv, "0.0,1,0,10") {
		t.Fatalf("row: %q", csv)
	}
}

func TestTimelineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bucket accepted")
		}
	}()
	NewTimeline(0, 0)
}

func TestTimelineIntegratesWithGenerator(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	tl := NewTimeline(0, time.Second)
	spec := testSpec(30, 6)
	spec.OnComplete = tl.Observe
	g := Start(e.Sched, e.Gateway, spec)
	e.Sched.RunUntil(14 * time.Second)
	e.Sched.Run()
	r := g.Results()
	var total uint64
	for _, p := range tl.Points() {
		total += p.Count + p.Errors
	}
	if total != r.Completed {
		t.Fatalf("timeline total %d != completed %d", total, r.Completed)
	}
	if tl.Len() < 10 {
		t.Fatalf("timeline buckets = %d, want >= 10", tl.Len())
	}
}

func TestTimelineErrorRateAndRecovery(t *testing.T) {
	ms := time.Millisecond
	tl := NewTimeline(0, 100*ms)
	// Buckets 0-4: bucket 1 and 2 have failures, rest clean.
	tl.Observe(50*ms, ms, false)
	tl.Observe(150*ms, ms, true)
	tl.Observe(160*ms, ms, false)
	tl.Observe(250*ms, ms, true)
	tl.Observe(350*ms, ms, false)
	tl.Observe(450*ms, ms, false)

	errorRate := func(from, to time.Duration) float64 {
		ok, fail := tl.Counts(from, to)
		return float64(fail) / float64(ok+fail)
	}
	if got := errorRate(0, 500*ms); got != 2.0/6.0 {
		t.Fatalf("error rate = %v", got)
	}
	if got := errorRate(300*ms, 500*ms); got != 0 {
		t.Fatalf("clean-window error rate = %v", got)
	}
	// Fault at 150ms: first clean run of 2 buckets starts at bucket 3
	// (300ms) → TTR = 150ms.
	ttr, ok := tl.RecoveryTime(150*ms, 2)
	if !ok || ttr != 150*ms {
		t.Fatalf("RecoveryTime = %v, %v", ttr, ok)
	}
	// A run that starts before from reads as recovery at from.
	if ttr, ok := tl.RecoveryTime(320*ms, 1); !ok || ttr != 0 {
		t.Fatalf("RecoveryTime from a clean bucket = %v, %v, want 0", ttr, ok)
	}
	// Never-recovered stream.
	tl2 := NewTimeline(0, 100*ms)
	tl2.Observe(50*ms, 0, true)
	if _, ok := tl2.RecoveryTime(0, 2); ok {
		t.Fatal("recovery reported for all-failing stream")
	}
}

func TestTimelineCounts(t *testing.T) {
	ms := time.Millisecond
	tl := NewTimeline(0, 100*ms)
	tl.Observe(50*ms, ms, false)
	tl.Observe(150*ms, ms, true)
	tl.Observe(250*ms, ms, false)
	for _, c := range []struct {
		from, to time.Duration
		ok, fail uint64
	}{
		{0, 200 * ms, 1, 1},
		{0, 300 * ms, 2, 1},
		{120 * ms, 201 * ms, 1, 1}, // buckets 1 and 2: from's, and the one starting at 200ms
		{300 * ms, time.Second, 0, 0},
	} {
		if ok, fail := tl.Counts(c.from, c.to); ok != c.ok || fail != c.fail {
			t.Fatalf("Counts[%v,%v) = (%d,%d), want (%d,%d)", c.from, c.to, ok, fail, c.ok, c.fail)
		}
	}
}
