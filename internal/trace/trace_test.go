package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func mkSpan(c *Collector, trace string, parent uint64, svc string, start, end time.Duration) *Span {
	s := &Span{
		TraceID:  trace,
		SpanID:   c.NewSpanID(),
		ParentID: parent,
		Service:  svc,
		Name:     "GET /",
		Start:    start,
		End:      end,
	}
	c.Record(s)
	return s
}

func TestIDsUnique(t *testing.T) {
	c := NewCollector()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := c.NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
	if c.NewSpanID() == 0 {
		t.Fatal("span id 0 is reserved for 'no parent'")
	}
}

func TestTreeReconstruction(t *testing.T) {
	c := NewCollector()
	root := mkSpan(c, "t1", 0, "gateway", 0, 100*time.Millisecond)
	fe := mkSpan(c, "t1", root.SpanID, "frontend", 5*time.Millisecond, 95*time.Millisecond)
	mkSpan(c, "t1", fe.SpanID, "details", 10*time.Millisecond, 30*time.Millisecond)
	rv := mkSpan(c, "t1", fe.SpanID, "reviews", 10*time.Millisecond, 80*time.Millisecond)
	mkSpan(c, "t1", rv.SpanID, "ratings", 20*time.Millisecond, 60*time.Millisecond)

	tree := c.Tree("t1")
	if tree == nil || tree.Span.Service != "gateway" {
		t.Fatal("root not found")
	}
	if tree.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", tree.Depth())
	}
	if len(tree.Children) != 1 || tree.Children[0].Span.Service != "frontend" {
		t.Fatal("frontend not child of gateway")
	}
	feNode := tree.Children[0]
	if len(feNode.Children) != 2 {
		t.Fatalf("frontend children = %d, want 2", len(feNode.Children))
	}
	// Children sorted by start time: details and reviews start equal,
	// then ratings under reviews.
	count := 0
	tree.Walk(func(n *TreeNode, depth int) { count++ })
	if count != 5 {
		t.Fatalf("walked %d nodes, want 5", count)
	}
	f := tree.Format()
	if !strings.Contains(f, "ratings") || !strings.Contains(f, "gateway") {
		t.Fatalf("format missing services:\n%s", f)
	}
}

func TestRootTagProvenance(t *testing.T) {
	c := NewCollector()
	root := mkSpan(c, "t2", 0, "gateway", 0, time.Second)
	root.Priority = "high"
	mkSpan(c, "t2", root.SpanID, "ratings", 0, time.Second)
	if got := c.Tree("t2").Span.Priority; got != "high" {
		t.Fatalf("root priority = %q, want high", got)
	}
	if c.Tree("missing") != nil {
		t.Fatal("unknown trace returned a tree")
	}
}

func TestOrphanTraceTolerated(t *testing.T) {
	c := NewCollector()
	mkSpan(c, "t3", 999, "svc", 0, time.Millisecond) // parent never recorded
	tree := c.Tree("t3")
	if tree == nil {
		t.Fatal("orphan trace produced nil tree")
	}
}

func TestUnknownTrace(t *testing.T) {
	c := NewCollector()
	if c.Tree("nope") != nil {
		t.Fatal("unknown trace returned a tree")
	}
	if len(c.Trace("nope")) != 0 {
		t.Fatal("unknown trace returned spans")
	}
}

func TestTraceIDsSorted(t *testing.T) {
	c := NewCollector()
	mkSpan(c, "b", 0, "s", 0, 1)
	mkSpan(c, "a", 0, "s", 0, 1)
	ids := c.TraceIDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("ids = %v", ids)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestSpanAccessors(t *testing.T) {
	s := &Span{Start: time.Millisecond, End: 3 * time.Millisecond}
	if s.Duration() != 2*time.Millisecond {
		t.Fatalf("duration = %v", s.Duration())
	}
}

// TestSpanSizeClass pins the span to the 128 B allocation size class:
// the collector keeps two spans per hop per request for the whole run,
// so a field added to Span must fit the budget or justify a larger one.
func TestSpanSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got > 128 {
		t.Fatalf("unsafe.Sizeof(Span{}) = %d B, budget 128", got)
	}
}

func TestTraceIDMatchesFormat(t *testing.T) {
	for _, seq := range []uint64{0, 1, 9, 10, 12345678, 99999999, 100000000, 123456789012, 1<<64 - 1} {
		if got, want := traceID(seq), fmt.Sprintf("req-%08d", seq); got != want {
			t.Errorf("traceID(%d) = %q, want %q", seq, got, want)
		}
	}
	c := NewCollector()
	if got := c.NewTraceID(); got != "req-00000001" {
		t.Fatalf("first trace id = %q", got)
	}
}
