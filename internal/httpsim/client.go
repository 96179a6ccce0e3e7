package httpsim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// wireMsg is the transport-level frame: a request or a response tagged
// with the request ID it belongs to. Recycled through the network's
// records; retention past freeWire is enforced away by meshvet's
// poolescape analyzer.
//
//meshvet:pooled
type wireMsg struct {
	id   uint64
	req  *Request
	resp *Response
}

// records holds the free lists of one network's frames, call records
// and server records. It hangs off the network, like transport's
// segment list, rather than a package variable: parallel sweeps run
// many simulations at once, each single-threaded on its own scheduler.
// A sync.Pool would do the same job, but every collection empties one,
// so how often a run allocates would depend on when the collector ran.
//
// The receiver frees a frame as soon as it has extracted the
// request/response it wraps; the sender's retransmission bookkeeping
// may still reference a freed frame, but stale boundary metadata is
// discarded by the transport's delivery watermark without ever being
// dereferenced.
type records struct {
	wire    []*wireMsg
	pending []*pendingCall
	serving []*serving
}

// recordsOf returns the network's records, creating them on first use.
func recordsOf(h *transport.Host) *records {
	net := h.Node().Network()
	if r, ok := net.HTTPState().(*records); ok {
		return r
	}
	r := &records{}
	net.SetHTTPState(r)
	return r
}

func (rs *records) allocWire() *wireMsg {
	if k := len(rs.wire); k > 0 {
		m := rs.wire[k-1]
		rs.wire = rs.wire[:k-1]
		return m
	}
	return new(wireMsg)
}

func (rs *records) freeWire(m *wireMsg) {
	*m = wireMsg{}
	rs.wire = append(rs.wire, m) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}

// ErrConnClosed is delivered to callbacks whose connection died before
// the response arrived.
var ErrConnClosed = errors.New("httpsim: connection closed")

// ErrTimeout is delivered to a DoWithin callback whose deadline passed
// before the response arrived. A reply that arrives later is dropped.
var ErrTimeout = errors.New("httpsim: request timed out")

// Client issues requests over a single transport connection. Multiple
// requests may be in flight; responses are matched by ID.
type Client struct {
	conn  *transport.Conn
	sched *simnet.Scheduler
	rec   *records
	// pending holds the calls in flight in issue order, so ascending id.
	// A slot a call leaves is zeroed: the array outlives the call, and a
	// stale record would keep its callback alive.
	pending []*pendingCall
	nextID  uint64
	closed  bool
}

// pendingCall is one request awaiting its response, its deadline, or
// its connection's end, whichever comes first. Records are recycled
// through the network's records: a call leaves the pending list,
// disarms its deadline and goes back to the free list before its
// callback fires, so the callback fires exactly once and may issue the
// next call on the same record.
//
//meshvet:pooled
type pendingCall struct {
	c        *Client
	id       uint64
	cb       func(*Response, error)
	deadline simnet.Timer
	// expire is onDeadline bound once, when the record is made, so
	// arming a deadline allocates nothing.
	expire func()
}

func (rs *records) allocPending() *pendingCall {
	if k := len(rs.pending); k > 0 {
		p := rs.pending[k-1]
		rs.pending = rs.pending[:k-1]
		return p
	}
	p := new(pendingCall)
	p.expire = p.onDeadline
	return p
}

// NewClient dials dst:port and returns a client ready for Do.
func NewClient(h *transport.Host, dst simnet.Addr, port uint16, opts transport.Options) *Client {
	c := &Client{sched: h.Node().Network().Scheduler(), rec: recordsOf(h)}
	c.conn = h.Dial(dst, port, opts)
	c.conn.SetOnMessage(c.onMessage)
	c.conn.SetOnClose(c.onClose)
	return c
}

// Conn exposes the underlying transport connection (for marks and
// congestion-control swaps by the cross-layer controller).
func (c *Client) Conn() *transport.Conn { return c.conn }

// Closed reports whether the client's connection is gone.
func (c *Client) Closed() bool { return c.closed }

// Do sends the request with no deadline: DoWithin(req, 0, cb).
func (c *Client) Do(req *Request, cb func(*Response, error)) { c.DoWithin(req, 0, cb) }

// DoWithin sends the request; cb fires exactly once, with the response,
// a transport error, or ErrTimeout if timeout (when positive) passes
// first. The deadline is armed before the request is sent. The request
// object must not be mutated by the caller afterwards.
func (c *Client) DoWithin(req *Request, timeout time.Duration, cb func(*Response, error)) {
	if c.closed {
		cb(nil, ErrConnClosed)
		return
	}
	c.nextID++
	p := c.rec.allocPending()
	p.c, p.id, p.cb = c, c.nextID, cb
	if timeout > 0 {
		p.deadline = c.sched.After(timeout, p.expire)
	}
	c.pending = append(c.pending, p) //meshvet:allow poolescape the pending list owns a call until release takes it off
	m := c.rec.allocWire()
	m.id, m.req = p.id, req
	if err := c.conn.SendMessage(m, req.WireSize()); err != nil {
		c.take(p.id)
		c.rec.freeWire(m)
		p.release(nil, err)
	}
}

// take removes the pending call with the id and returns it, or nil if
// none is pending. slices.Delete zeroes the slot it vacates.
func (c *Client) take(id uint64) *pendingCall {
	i, ok := slices.BinarySearchFunc(c.pending, id, func(p *pendingCall, id uint64) int { return cmp.Compare(p.id, id) })
	if !ok {
		return nil
	}
	p := c.pending[i]
	c.pending = slices.Delete(c.pending, i, i+1)
	return p
}

// onDeadline fails a call whose deadline passed while it was pending:
// release cancels the deadline of every call that settles otherwise.
func (p *pendingCall) onDeadline() {
	p.c.take(p.id)
	p.release(nil, ErrTimeout)
}

// release settles a call that has left its client's pending list:
// disarm its deadline, reset the record and return it to the free list,
// then fire the callback.
func (p *pendingCall) release(resp *Response, err error) {
	cb, rs := p.cb, p.c.rec
	p.deadline.Cancel()
	*p = pendingCall{expire: p.expire}
	rs.pending = append(rs.pending, p) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
	cb(resp, err)
}

func (c *Client) onMessage(meta any, _ int) {
	m, ok := meta.(*wireMsg)
	if !ok || m.resp == nil {
		return
	}
	id, resp := m.id, m.resp
	c.rec.freeWire(m)
	if p := c.take(id); p != nil {
		p.release(resp, nil)
	}
}

func (c *Client) onClose(err error) {
	c.closed = true
	if err == nil {
		err = ErrConnClosed
	}
	// Fail pending requests in issue order, so retry scheduling is
	// deterministic when a torn-down connection had several in flight.
	// The client drops the array first: a callback that issues again
	// fails at once (closed) and never sees it.
	pending := c.pending
	c.pending = nil
	for _, p := range pending {
		p.release(nil, err)
	}
}

// Ctx carries per-request server-side context: most importantly the
// transport connection the request arrived on, which the mesh sidecar
// re-marks and re-schedules per the request's priority (response bytes
// dominate the wire, and they flow on this connection).
type Ctx struct {
	Conn *transport.Conn
}

// Handler serves a request and eventually calls respond exactly once;
// a second call panics. Handlers may respond asynchronously (after
// issuing upstream calls).
type Handler func(ctx Ctx, req *Request, respond func(*Response))

// Server accepts connections on a port and dispatches requests to a
// handler.
type Server struct {
	host    *transport.Host
	rec     *records
	handler Handler
	served  uint64
}

// NewServer starts listening on h:port with the handler.
func NewServer(h *transport.Host, port uint16, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, fmt.Errorf("httpsim: nil handler")
	}
	s := &Server{host: h, rec: recordsOf(h), handler: handler}
	if _, err := h.Listen(port, s.accept); err != nil {
		return nil, err
	}
	return s, nil
}

// Served returns the number of requests dispatched.
func (s *Server) Served() uint64 { return s.served }

func (s *Server) accept(conn *transport.Conn) {
	conn.SetOnMessage(func(meta any, _ int) {
		m, ok := meta.(*wireMsg)
		if !ok || m.req == nil {
			return
		}
		s.served++
		r := s.rec.allocServing()
		r.conn, r.id = conn, m.id
		req := m.req
		s.rec.freeWire(m)
		gen := r.gen
		s.handler(Ctx{Conn: conn}, req, func(resp *Response) { r.respond(gen, resp) }) //meshvet:allow poolescape the closure holds the record with its generation, and respond checks that before using it
	})
}

// serving is one request a server has dispatched and not yet answered:
// the connection it came on and its id there. Records are recycled
// through the network's records, and gen counts the requests a record has
// served: a respond closure holds its record with the gen it was
// handed out at, so a second respond, even one made after the record
// went on to serve another request, sees a newer gen and panics rather
// than answering that request.
//
//meshvet:pooled
type serving struct {
	rec  *records
	conn *transport.Conn
	id   uint64
	gen  uint64
}

func (rs *records) allocServing() *serving {
	if k := len(rs.serving); k > 0 {
		r := rs.serving[k-1]
		rs.serving = rs.serving[:k-1]
		return r
	}
	return &serving{rec: rs}
}

// respond sends resp as the answer to the request the record served at
// generation gen, and returns the record to the free list.
func (r *serving) respond(gen uint64, resp *Response) {
	if r.gen != gen {
		panic("httpsim: respond called twice")
	}
	rs, conn, id := r.rec, r.conn, r.id
	*r = serving{rec: rs, gen: gen + 1}
	rs.serving = append(rs.serving, r) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
	if conn.Closed() {
		return // client went away; nothing to do
	}
	rm := rs.allocWire()
	rm.id, rm.resp = id, resp
	conn.SendMessage(rm, resp.WireSize())
}
