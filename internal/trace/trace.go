// Package trace implements the mesh's distributed tracing: spans tied
// together by a request ID propagated in HTTP headers (Istio's
// x-request-id mechanism), a collector, and call-tree reconstruction.
//
// Tracing is the provenance substrate of the paper's case study: the
// sidecar knows which outgoing requests were spawned by which incoming
// one *because* they share the trace ID, and the cross-layer controller
// keys priority propagation off exactly that association (§4.3
// component 2).
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Header names used for context propagation, mirroring Istio/Envoy.
const (
	// HeaderRequestID carries the trace (request) ID end to end.
	HeaderRequestID = "x-request-id"
	// HeaderSpanID carries the caller's span ID, becoming the parent of
	// spans the callee creates.
	HeaderSpanID = "x-span-id"
)

// Span records one operation's execution window within a service.
//
// Its annotations are typed fields, not a key/value map: every hop of
// every request records two spans and the collector keeps them all for
// the run, so a span is one 128 B allocation (TestSpanSizeClass), and
// it is also the link that chains its trace's spans in recording order.
// The callee of a client span is the second word of its Name
// ("call <svc> <path>"), so it is not stored twice.
type Span struct {
	TraceID  string
	SpanID   uint64
	ParentID uint64 // 0 for root spans
	Service  string
	Name     string
	Start    time.Duration
	End      time.Duration
	// Priority is the request class the span served ("" if unclassified).
	Priority string
	// Degraded names the upstream whose fallback answered a client span.
	Degraded string
	// Status is the HTTP status returned; 0 means the call ended in an
	// error.
	Status int32
	// Retries counts a client span's attempts after the first.
	Retries int16
	// Client marks an outbound call span; server spans leave it false.
	Client bool

	// next is the span recorded after this one in the same trace; nil
	// until then, and always nil on the trace's last span.
	next *Span
}

// Duration returns the span's elapsed time.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// String renders a compact description.
func (s *Span) String() string {
	return fmt.Sprintf("[%s] %s %s %v (span=%d parent=%d)", s.TraceID, s.Service, s.Name, s.Duration(), s.SpanID, s.ParentID)
}

// Collector stores finished spans, indexed by trace. A trace is the
// list its spans link through Span.next, so a recorded span costs the
// collector nothing beyond itself.
type Collector struct {
	byTrace map[string]spanList
	// names interns span names (Name): one copy of each distinct name,
	// which the spans that carry it keep alive anyway.
	names  map[string]string
	n      int
	nextID uint64
	seq    uint64
}

// spanList is one trace: its first and last recorded spans.
type spanList struct{ head, tail *Span }

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byTrace: make(map[string]spanList), names: make(map[string]string)}
}

// NewTraceID mints a process-unique trace ID (deterministic across
// runs: IDs are sequence numbers, not random UUIDs).
func (c *Collector) NewTraceID() string {
	c.seq++
	return traceID(c.seq)
}

// traceID formats seq as "req-" and at least eight zero-padded digits,
// into a stack buffer: one allocation, the returned string.
func traceID(seq uint64) string {
	const prefix, width = "req-", 8
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	var buf [len(prefix) + len(digits)]byte
	b := append(buf[:0], prefix...)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// NewSpanID mints a span ID (never zero; zero means "no parent").
func (c *Collector) NewSpanID() uint64 {
	c.nextID++
	return c.nextID
}

// Name returns words joined by single spaces — a span name such as
// "GET /chain" or "call svc-1 /chain" — as this collector's one copy of
// that string. The key is rendered into a stack buffer, so a name seen
// before allocates nothing and a new one allocates the string kept.
func (c *Collector) Name(words ...string) string {
	var buf [128]byte
	b := buf[:0]
	for i, w := range words {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, w...)
	}
	if name, ok := c.names[string(b)]; ok { // no copy: the conversion only indexes
		return name
	}
	name := string(b)
	c.names[name] = name
	return name
}

// Record stores a finished span at the end of its trace. A span is
// recorded once: recording it again panics, since relinking it would
// cut or loop its trace.
func (c *Collector) Record(s *Span) {
	l := c.byTrace[s.TraceID]
	if s.next != nil || l.tail == s {
		panic("trace: span recorded twice")
	}
	if l.head == nil {
		l.head = s
	} else {
		l.tail.next = s
	}
	l.tail = s
	c.byTrace[s.TraceID] = l
	c.n++
}

// Len returns the number of recorded spans.
func (c *Collector) Len() int { return c.n }

// Trace returns the spans of a trace in recording order, in a slice
// made for this call: the caller may keep or change it.
func (c *Collector) Trace(id string) []*Span {
	var out []*Span
	for s := c.byTrace[id].head; s != nil; s = s.next {
		out = append(out, s)
	}
	return out
}

// TraceIDs returns all known trace IDs, sorted.
func (c *Collector) TraceIDs() []string {
	ids := make([]string, 0, len(c.byTrace))
	for id := range c.byTrace {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TreeNode is a span with its children, forming the distributed call
// tree of one request.
type TreeNode struct {
	Span     *Span
	Children []*TreeNode
}

// Tree reconstructs the call tree of a trace from parent span IDs.
// Returns nil for unknown traces or traces with no root.
func (c *Collector) Tree(id string) *TreeNode {
	head := c.byTrace[id].head
	if head == nil {
		return nil
	}
	nodes := make(map[uint64]*TreeNode)
	for s := head; s != nil; s = s.next {
		nodes[s.SpanID] = &TreeNode{Span: s}
	}
	var root *TreeNode
	for s := head; s != nil; s = s.next {
		n := nodes[s.SpanID]
		if s.ParentID == 0 {
			root = n
			continue
		}
		if p, ok := nodes[s.ParentID]; ok {
			p.Children = append(p.Children, n)
		} else if root == nil {
			// Orphan span (parent not recorded): tolerate partial traces.
			root = n
		}
	}
	if root != nil {
		sortTree(root)
	}
	return root
}

func sortTree(n *TreeNode) {
	sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Span.Start < n.Children[j].Span.Start })
	for _, c := range n.Children {
		sortTree(c)
	}
}

// Depth returns the maximum depth of the tree (a single span is 1).
func (n *TreeNode) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Walk visits the tree pre-order.
func (n *TreeNode) Walk(fn func(*TreeNode, int)) { n.walk(fn, 0) }

func (n *TreeNode) walk(fn func(*TreeNode, int), depth int) {
	if n == nil {
		return
	}
	fn(n, depth)
	for _, c := range n.Children {
		c.walk(fn, depth+1)
	}
}

// Format renders the tree as an indented outline.
func (n *TreeNode) Format() string {
	var b strings.Builder
	n.Walk(func(t *TreeNode, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s %s (%v)\n", t.Span.Service, t.Span.Name, t.Span.Duration())
	})
	return b.String()
}
