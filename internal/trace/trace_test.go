package trace

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// record stores s as a closed span through the collector's one write
// path, Open, Degrade and Close, and sets s.SpanID to the minted ID.
func record(c *Collector, s *Span) {
	ref := c.Open(*s)
	s.SpanID = uint64(ref)
	if s.Degraded != "" {
		c.Degrade(ref, s.Degraded)
	}
	c.Close(ref, s.End, s.Status, s.Retries)
}

func mkSpan(c *Collector, trace string, parent uint64, svc string, start, end time.Duration) *Span {
	s := &Span{
		TraceID:  trace,
		ParentID: parent,
		Service:  svc,
		Name:     "GET /",
		Start:    start,
		End:      end,
	}
	record(c, s)
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
	for i := SpanRef(1); i <= 3; i++ {
		if id := c.Open(Span{TraceID: "t"}); id != i {
			t.Fatalf("span %d minted id %d: ids count from 1, and 0 is reserved for 'no parent'", i, id)
		}
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
	root := &Span{TraceID: "t2", Service: "gateway", Name: "GET /", End: time.Second, Priority: "high"}
	record(c, root)
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

// TestRowIsPointerFree pins what the collector keeps per span for the
// whole run, two spans per hop per request: a row of at most 32 B that
// holds no pointer, so the chunks of rows are never scanned by the
// garbage collector, and a chunk of chunkRows rows is 32 KB. A field
// added to row must fit the budget or justify a larger one with
// rpc_chain's live_heap_mb.
func TestRowIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got > 32 {
		t.Errorf("unsafe.Sizeof(row{}) = %d B, budget 32", got)
	}
	if got := unsafe.Sizeof([chunkRows]row{}); got != 32<<10 {
		t.Errorf("a chunk is %d B, want 32 KB, the largest small size class", got)
	}
	if path := pointerIn(reflect.TypeOf([chunkRows]row{}), "chunk"); path != "" {
		t.Errorf("%s carries a pointer: the garbage collector would scan every chunk", path)
	}
	if path := pointerIn(reflect.TypeOf(Span{}), "Span"); path != "Span.TraceID (string)" {
		t.Errorf("the walk finds %q in Span, want its first string", path)
	}
}

// pointerIn returns the path to the first part of a value of type typ
// that carries a pointer, or "" if none does.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[i]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	default: // pointer, string, slice, map, chan, func, interface
		return path + " (" + typ.String() + ")"
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

// TestIDTextMatchesFormat: IDText is strconv.FormatUint(id, 16) for the
// ids a run mints in order, across the block edges where the hex width
// grows, and for ids asked out of order: at block edges, near 2^64,
// and back in a block left behind. A run of idBlock ids in order costs
// one allocation, the block's string.
func TestIDTextMatchesFormat(t *testing.T) {
	c := NewCollector()
	check := func(id uint64) {
		t.Helper()
		if got, want := c.IDText(id), strconv.FormatUint(id, 16); got != want {
			t.Fatalf("IDText(%#x) = %q, want %q", id, got, want)
		}
	}
	for id := uint64(0); id < 5*idBlock; id++ {
		check(id)
	}
	for _, id := range []uint64{0xfff, 0x1000, 0xffff_ffff, 1 << 32, 1<<63 - 1, 1 << 63,
		1<<64 - idBlock - 1, 1<<64 - idBlock, 1<<64 - 2, 1<<64 - 1, 0, 15, 16, 255, 256} {
		check(id)
	}
	next := uint64(64 * idBlock)
	c.IDText(next)
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < idBlock; i++ {
			next++
			c.IDText(next)
		}
	}); n != 1 {
		t.Errorf("%d ids in order allocate %v times, want 1", idBlock, n)
	}
}
