// Package trace implements the mesh's distributed tracing: spans tied
// together by a request ID propagated in HTTP headers (Istio's
// x-request-id mechanism), a collector, and call-tree reconstruction.
//
// Tracing is the provenance substrate of the paper's case study: the
// sidecar knows which outgoing requests were spawned by which incoming
// one *because* they share the trace ID, and the cross-layer controller
// keys priority propagation off exactly that association (§4.3
// component 2). Provenance is the one table type every such lookup
// uses: core's priority marks, the mesh's degraded-response origins
// and each sidecar's deadline expiries.
package trace

import (
	"fmt"
	"slices"
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
// Its annotations are typed fields, not a key/value map. It is the
// collector's view of a stored row: Trace and Tree build one on each
// call, so a caller may keep or change it without touching what the
// collector holds.
//
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
}

// Duration returns the span's elapsed time.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// String renders a compact description.
func (s *Span) String() string {
	return fmt.Sprintf("[%s] %s %s %v (span=%d parent=%d)", s.TraceID, s.Service, s.Name, s.Duration(), s.SpanID, s.ParentID)
}

// SpanRef names a span the collector stores: one more than its row's
// index, which is also the span's ID. The zero SpanRef is no span.
type SpanRef uint32

// op is what a span does, interned by one collector as an index into
// Collector.ops: the service it ran in, its name, the request class it
// served, the upstream whose fallback answered it, and whether it is
// an outbound call. The spans of a run share a few dozen of them.
type op struct {
	service, name, priority, degraded string
	client                            bool
}

// row is a stored span, 32 B (TestRowIsPointerFree) against the 120 B
// of the Span it stands for. It holds no pointer — what the span does
// is an op id, its trace and its trace's next span are indexes — so the
// chunks rows live in are never scanned by the garbage collector. Its
// span id is its SpanRef, so it stores none.
type row struct {
	start, end time.Duration
	// parent is the parent span's id, or wideParent when that id is
	// too wide for it and waits in Collector.wide.
	parent uint32
	// link is the index of the span's trace in Collector.traces while
	// the span is open. Close moves the span to the end of its trace's
	// list and link becomes the next span closed in the trace: 0 until
	// then, and always 0 on the trace's last span.
	link uint32
	// op is the span's op id; rowClosed marks a closed span.
	op              uint32
	status, retries int16
}

const (
	rowClosed  = 1 << 31
	wideParent = 1<<32 - 1
)

// chunkRows rows make a chunk: 32 KB, the largest small size class.
// The store grows a chunk at a time and a chunk never moves, so growing
// copies no row and never holds two copies of the store.
const (
	chunkBits = 10
	chunkRows = 1 << chunkBits
)

// Collector stores spans as rows, indexed by trace. A span is opened
// when its operation starts and closed when it ends; a closed span is
// a snapshot, which nothing can change afterwards, and only closed
// spans are visible to the read path (Len, Trace, TraceIDs, Tree and
// what is built on them). A trace is the list its closed spans link
// through row.link, in the order they closed.
type Collector struct {
	chunks []*[chunkRows]row
	rows   uint32 // rows opened; the last row's SpanRef
	traces []traceEntry
	// byTrace indexes traces by ID.
	byTrace map[string]uint32
	// ops holds each op the rows name once, and opIDs finds it.
	ops   []op
	opIDs map[op]uint32
	// names holds the one copy of each span name Name returned.
	names map[string]string
	// wide holds the parent ids of the spans whose row.parent is
	// wideParent. Only a header set outside the mesh names a parent the
	// collector did not mint, so it stays empty in a run.
	wide map[SpanRef]uint64
	n    int // closed spans
	seq  uint64
	// idText holds the hex of the idBlock-aligned run of span ids the
	// last IDText fell in, each padded to one width; idBase is the
	// run's first id, and idBuf the bytes each run is formatted into.
	idText string
	idBase uint64
	idBuf  []byte
}

// idBlock span ids share one IDText string: ids are minted in order,
// so a run of spans formats its ids once per idBlock spans.
const idBlock = 1024

// traceEntry is one trace: its ID and its first and last closed spans.
type traceEntry struct {
	id         string
	head, tail SpanRef
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byTrace: make(map[string]uint32), opIDs: make(map[op]uint32), names: make(map[string]string)}
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

// IDText returns id in lower-case hex without leading zeros, the text
// of the span-id header. It is sliced out of one string that holds
// the idBlock consecutive ids around id, each left-padded with zeros
// to the width of the block's largest, so the ids a run mints in order
// cost one string allocation per idBlock spans.
func (c *Collector) IDText(id uint64) string {
	base := id &^ (idBlock - 1)
	if c.idText == "" || base != c.idBase {
		c.formatIDs(base)
	}
	width := len(c.idText) / idBlock
	end := int(id-base+1) * width
	start := end - width
	for start < end-1 && c.idText[start] == '0' {
		start++
	}
	return c.idText[start:end]
}

// formatIDs fills idText with the block of ids starting at base, the
// bytes written into idBuf so the block costs only the string.
func (c *Collector) formatIDs(base uint64) {
	const digits = "0123456789abcdef"
	width := 1
	for last := base + idBlock - 1; last >= 16; last >>= 4 {
		width++
	}
	c.idBuf = slices.Grow(c.idBuf[:0], idBlock*width)[:idBlock*width]
	for i := 0; i < idBlock; i++ {
		v := base + uint64(i)
		for j := (i+1)*width - 1; j >= i*width; j-- {
			c.idBuf[j] = digits[v&15]
			v >>= 4
		}
	}
	c.idText, c.idBase = string(c.idBuf), base
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

// opID returns o's id, adding o to the table if it is new.
func (c *Collector) opID(o op) uint32 {
	if id, ok := c.opIDs[o]; ok {
		return id
	}
	id := uint32(len(c.ops))
	c.ops = append(c.ops, o)
	c.opIDs[o] = id
	return id
}

// Open stores the start of a span and returns its ref, which Degrade
// and Close take and which is also the span's ID: the n-th span opened
// is span n. It reads what is known when an operation starts — s's
// TraceID, ParentID, Service, Name, Priority, Start and Client — and
// ignores the rest. The span stays invisible to the read path until
// Close.
func (c *Collector) Open(s Span) SpanRef {
	i := c.rows
	if i%chunkRows == 0 {
		c.chunks = append(c.chunks, new([chunkRows]row))
	}
	c.rows++
	ref := SpanRef(c.rows)
	parent := uint32(s.ParentID)
	if s.ParentID >= wideParent {
		parent = wideParent
		if c.wide == nil {
			c.wide = make(map[SpanRef]uint64)
		}
		c.wide[ref] = s.ParentID
	}
	c.chunks[i>>chunkBits][i%chunkRows] = row{
		start:  s.Start,
		parent: parent,
		link:   c.traceIndex(s.TraceID),
		op:     c.opID(op{service: s.Service, name: s.Name, priority: s.Priority, client: s.Client}),
	}
	return ref
}

// traceIndex returns the index of the trace with id, adding an empty
// one if it is new.
func (c *Collector) traceIndex(id string) uint32 {
	if t, ok := c.byTrace[id]; ok {
		return t
	}
	t := uint32(len(c.traces))
	c.traces = append(c.traces, traceEntry{id: id})
	c.byTrace[id] = t
	return t
}

// row returns the row ref names.
func (c *Collector) row(ref SpanRef) *row {
	i := uint32(ref) - 1
	return &c.chunks[i>>chunkBits][i%chunkRows]
}

// Degrade records that upstream's fallback answered the open span ref.
// A closed span is a snapshot: degrading one panics.
func (c *Collector) Degrade(ref SpanRef, upstream string) {
	r := c.row(ref)
	if r.op&rowClosed != 0 {
		panic("trace: closed span degraded")
	}
	o := c.ops[r.op]
	o.degraded = upstream
	r.op = c.opID(o)
}

// Close stores the end of the open span ref and links it at the end
// of its trace, which makes it visible to the read path. A span closes
// once: closing it again panics and changes nothing, since relinking it
// would cut or loop its trace. So does a status that does not fit the
// row's 16 bits; an HTTP status has three digits.
func (c *Collector) Close(ref SpanRef, end time.Duration, status int32, retries int16) {
	r := c.row(ref)
	if r.op&rowClosed != 0 {
		panic("trace: span recorded twice")
	}
	if int32(int16(status)) != status {
		panic("trace: status out of range")
	}
	t := &c.traces[r.link]
	r.end, r.status, r.retries = end, int16(status), retries
	r.link = 0
	r.op |= rowClosed
	if t.head == 0 {
		t.head = ref
	} else {
		c.row(t.tail).link = uint32(ref)
	}
	t.tail = ref
	c.n++
}

// Len returns the number of closed spans.
func (c *Collector) Len() int { return c.n }

// span builds the view of the closed span ref, which trace holds.
func (c *Collector) span(ref SpanRef, r *row, trace string) Span {
	o := &c.ops[r.op&^rowClosed]
	parent := uint64(r.parent)
	if r.parent == wideParent {
		parent = c.wide[ref]
	}
	return Span{
		TraceID:  trace,
		SpanID:   uint64(ref),
		ParentID: parent,
		Service:  o.service,
		Name:     o.name,
		Start:    r.start,
		End:      r.end,
		Priority: o.priority,
		Degraded: o.degraded,
		Status:   int32(r.status),
		Retries:  r.retries,
		Client:   o.client,
	}
}

// spans builds the views of a trace's closed spans in the order they
// closed; nil for an unknown trace or one with no closed span.
func (c *Collector) spans(id string) []Span {
	t, ok := c.byTrace[id]
	if !ok {
		return nil
	}
	head := c.traces[t].head
	n := 0
	for ref := head; ref != 0; ref = SpanRef(c.row(ref).link) {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Span, 0, n)
	for ref := head; ref != 0; {
		r := c.row(ref)
		out = append(out, c.span(ref, r, id))
		ref = SpanRef(r.link)
	}
	return out
}

// Trace returns the closed spans of a trace in the order they closed,
// in a slice and spans made for this call: the caller may keep or
// change them.
func (c *Collector) Trace(id string) []*Span {
	spans := c.spans(id)
	if spans == nil {
		return nil
	}
	out := make([]*Span, len(spans))
	for i := range spans {
		out[i] = &spans[i]
	}
	return out
}

// TraceIDs returns the IDs of the traces with a closed span, sorted.
func (c *Collector) TraceIDs() []string {
	ids := make([]string, 0, len(c.traces))
	for _, t := range c.traces {
		if t.head != 0 {
			ids = append(ids, t.id)
		}
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
	spans := c.spans(id)
	if spans == nil {
		return nil
	}
	all := make([]TreeNode, len(spans))
	nodes := make(map[uint64]*TreeNode, len(spans))
	for i := range spans {
		all[i].Span = &spans[i]
		nodes[spans[i].SpanID] = &all[i]
	}
	var root *TreeNode
	for i := range all {
		n := &all[i]
		if n.Span.ParentID == 0 {
			root = n
			continue
		}
		if p, ok := nodes[n.Span.ParentID]; ok {
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
