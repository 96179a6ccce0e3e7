package trace

import (
	"strings"
	"testing"
	"time"
)

func TestCriticalPathLinear(t *testing.T) {
	c := NewCollector()
	root := mkSpan(c, "t1", 0, "a", 0, 100*time.Millisecond)
	mid := mkSpan(c, "t1", root.SpanID, "b", 10*time.Millisecond, 90*time.Millisecond)
	mkSpan(c, "t1", mid.SpanID, "c", 20*time.Millisecond, 60*time.Millisecond)

	steps := CriticalPath(c.Tree("t1"))
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	// Self times: a = 100-80 = 20ms, b = 80-40 = 40ms, c = 40ms.
	var sum time.Duration
	for _, s := range steps {
		sum += s.SelfTime
	}
	if sum != root.Duration() {
		t.Fatalf("self times sum to %v, want %v", sum, root.Duration())
	}
	if steps[0].SelfTime != 20*time.Millisecond || steps[1].SelfTime != 40*time.Millisecond {
		t.Fatalf("self times: %v / %v", steps[0].SelfTime, steps[1].SelfTime)
	}
}

func TestCriticalPathPicksGatingChild(t *testing.T) {
	c := NewCollector()
	root := mkSpan(c, "t2", 0, "frontend", 0, 100*time.Millisecond)
	mkSpan(c, "t2", root.SpanID, "details", 5*time.Millisecond, 20*time.Millisecond)
	slow := mkSpan(c, "t2", root.SpanID, "reviews", 5*time.Millisecond, 95*time.Millisecond)
	_ = slow
	steps := CriticalPath(c.Tree("t2"))
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[1].Span.Service != "reviews" {
		t.Fatalf("critical child = %s, want reviews", steps[1].Span.Service)
	}
}

func TestCriticalPathNil(t *testing.T) {
	if CriticalPath(nil) != nil {
		t.Fatal("nil tree should yield nil path")
	}
	if FormatCriticalPath(nil) != "" {
		t.Fatal("empty format expected")
	}
}

func TestFormatCriticalPath(t *testing.T) {
	c := NewCollector()
	root := mkSpan(c, "t3", 0, "a", 0, 10*time.Millisecond)
	mkSpan(c, "t3", root.SpanID, "b", 1*time.Millisecond, 9*time.Millisecond)
	out := FormatCriticalPath(CriticalPath(c.Tree("t3")))
	if !strings.Contains(out, "critical path") || !strings.Contains(out, "%") {
		t.Fatalf("format: %s", out)
	}
}

func TestSlowestTraces(t *testing.T) {
	c := NewCollector()
	mkSpan(c, "fast", 0, "s", 0, time.Millisecond)
	mkSpan(c, "slow", 0, "s", 0, time.Second)
	mkSpan(c, "mid", 0, "s", 0, 100*time.Millisecond)
	got := c.SlowestTraces(2)
	if len(got) != 2 || got[0] != "slow" || got[1] != "mid" {
		t.Fatalf("slowest = %v", got)
	}
	if len(c.SlowestTraces(10)) != 3 {
		t.Fatal("over-asking should clamp")
	}
}

func TestServiceTotals(t *testing.T) {
	c := NewCollector()
	a := mkSpan(c, "a", 0, "x", 0, 10*time.Millisecond)
	mkSpan(c, "a", a.SpanID, "y", 0, 5*time.Millisecond)
	mkSpan(c, "b", 0, "x", 0, 20*time.Millisecond)
	mkSpan(c, "c", 0, "y", 0, 5*time.Millisecond)
	totals := c.ServiceTotals()
	if totals["x"].Spans != 2 || totals["x"].TotalTime != 30*time.Millisecond {
		t.Fatalf("x totals = %+v", totals["x"])
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if totals["y"].Spans != 2 || totals["y"].TotalTime != 10*time.Millisecond {
		t.Fatalf("y totals = %+v", totals["y"])
	}
}
