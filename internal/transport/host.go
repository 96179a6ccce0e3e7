package transport

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"meshlayer/internal/simnet"
)

// table is the transport state one simnet.Network keeps for all its
// hosts: the flow-key demux of every live connection and the Segment
// free list. A flow key carries its local address, so it names one
// connection network-wide; a segment is allocated by its sender and
// freed by its receiver, so one list serves both ends. It hangs off the
// network rather than a package variable because parallel sweeps run
// many networks at once.
type table struct {
	net   *simnet.Network
	sched *simnet.Scheduler
	conns map[simnet.FlowKey]*Conn

	// segPool recycles Segment structs. Segments lost in transit simply
	// fall to the garbage collector.
	segPool []*Segment
}

// tableOf returns the network's table, creating it on first use.
func tableOf(net *simnet.Network) *table {
	if t, ok := net.TransportState().(*table); ok {
		return t
	}
	t := &table{net: net, sched: net.Scheduler(), conns: make(map[simnet.FlowKey]*Conn)}
	net.SetTransportState(t)
	return t
}

// allocSeg pops a recycled segment (scrubbing it here, at reuse time)
// or allocates a fresh one. The Sacks and Bounds backing arrays are
// kept, emptied: each is exclusively owned by the segment — senders copy
// message ends in (Conn.boundsIn), never alias their own list — and is
// reused by the next ACK or DATA segment.
func (t *table) allocSeg() *Segment {
	if k := len(t.segPool); k > 0 {
		s := t.segPool[k-1]
		t.segPool = t.segPool[:k-1]
		*s = Segment{Sacks: s.Sacks[:0], Bounds: s.Bounds[:0]}
		return s
	}
	return &Segment{}
}

// freeSeg returns a handled segment to the pool.
func (t *table) freeSeg(s *Segment) {
	t.segPool = append(t.segPool, s) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}

// Host is the per-node transport endpoint: it demultiplexes incoming
// packets to connections and listeners. Create exactly one per node
// that terminates transport traffic.
type Host struct {
	node      *simnet.Node
	tab       *table
	listeners []*Listener

	// Ephemeral source ports. nextPort is where allocPort resumes its
	// upward probe. portUse[p-ephemeralBase] counts the connections whose
	// local port is p (a dialled connection holds its port alone, accepted
	// ones share their listener's) and is grown to the highest such port
	// seen; portsBusy counts its non-zero entries. addConn and removeConn
	// maintain both, so a probe is one index rather than a scan of conns.
	nextPort  uint16
	portsBusy uint16
	portUse   []uint32

	// conns are the host's live connections in no order; Conn.slot is
	// each one's index. The table demuxes, this lets ResetConns find the
	// host's own without a scan of the network's.
	conns []*Conn
}

// Listener accepts inbound connections on a port.
type Listener struct {
	host     *Host
	port     uint16
	onAccept func(*Conn)
}

// Close stops accepting new connections.
func (l *Listener) Close() {
	h := l.host
	if i := slices.Index(h.listeners, l); i >= 0 {
		h.listeners = slices.Delete(h.listeners, i, i+1)
	}
}

// listener returns the listener on the port, or nil.
func (h *Host) listener(port uint16) *Listener {
	for _, l := range h.listeners {
		if l.port == port {
			return l
		}
	}
	return nil
}

// NewHost attaches a transport endpoint to the node, registering the
// node's local-delivery hook.
func NewHost(node *simnet.Node) *Host {
	h := &Host{
		node:     node,
		tab:      tableOf(node.Network()),
		nextPort: ephemeralBase,
	}
	node.SetDeliver(h.deliver)
	return h
}

// Node returns the underlying simnet node.
func (h *Host) Node() *simnet.Node { return h.node }

// Attach (re)installs the host's packet-delivery hook on its node —
// used to restore connectivity after a simulated network partition
// replaced the hook with a blackhole.
func (h *Host) Attach() { h.node.SetDeliver(h.deliver) }

// Listen registers an accept callback for the port. The callback runs
// when the SYN arrives, before any data, so it can install OnMessage.
func (h *Host) Listen(port uint16, onAccept func(*Conn)) (*Listener, error) {
	if h.listener(port) != nil {
		return nil, fmt.Errorf("transport: port %d already listening on %s", port, h.node.Name())
	}
	l := &Listener{host: h, port: port, onAccept: onAccept}
	h.listeners = append(h.listeners, l)
	return l, nil
}

// Dial opens a connection to dst:port. The returned Conn is usable
// immediately — messages queued before the handshake completes are
// sent once it does.
func (h *Host) Dial(dst simnet.Addr, port uint16, opts Options) *Conn {
	srcPort, ok := h.allocPort()
	c := &Conn{
		host: h,
		flow: simnet.FlowKey{
			Src:     h.node.Addr(),
			Dst:     dst,
			SrcPort: srcPort,
			DstPort: port,
			Proto:   simnet.ProtoTCP,
		},
		state:   stateSynSent,
		mark:    opts.Mark,
		cc:      NewController(opts.CC, h.tab.sched.Now),
		peerWnd: rcvWindow,
	}
	if opts.MinRTO != 0 {
		c.cold = &connCold{optMinRTO: opts.MinRTO}
	}
	if !ok {
		// Fail like a handshake that never completes, only at once: from
		// the scheduler, so the caller has the Conn and its OnClose set.
		c.timer.Cancel() // zero on a fresh Conn; cancel before arm
		c.timer = h.tab.sched.After(0, func() { c.teardown(ErrNoEphemeralPort) })
		return c
	}
	h.addConn(c)
	h.sendSYN(c)
	return c
}

func (h *Host) sendSYN(c *Conn) {
	if c.state != stateSynSent {
		return
	}
	c.synTries++
	if c.synTries > 4 {
		c.teardown(ErrConnectTimeout)
		return
	}
	c.emit(c.seg(SegSYN), 0)
	backoff := time.Second << uint(c.synTries-1)
	c.timer.Cancel() // fired (we are its callback) or zero; cancel before re-arm
	c.timer = h.tab.sched.After(backoff, func() { h.sendSYN(c) })
}

// ephemeralBase is the first of the 32768 source ports Dial allocates.
const ephemeralBase = 32768

// allocPort returns the next ephemeral port no connection on the host
// uses, probing upward from nextPort and wrapping at 65535. With every
// one of them in use there is nothing to find and it reports !ok.
func (h *Host) allocPort() (uint16, bool) {
	if int(h.portsBusy) == 1<<16-ephemeralBase {
		return 0, false
	}
	for {
		p := h.nextPort
		h.nextPort++
		if h.nextPort < ephemeralBase {
			h.nextPort = ephemeralBase
		}
		if i := int(p) - ephemeralBase; i >= len(h.portUse) || h.portUse[i] == 0 {
			return p, true
		}
	}
}

func (h *Host) addConn(c *Conn) {
	h.tab.conns[c.flow] = c
	c.slot = int32(len(h.conns))
	h.conns = append(h.conns, c)
	if i := int(c.flow.SrcPort) - ephemeralBase; i >= 0 {
		for len(h.portUse) <= i {
			h.portUse = append(h.portUse, 0)
		}
		if h.portUse[i] == 0 {
			h.portsBusy++
		}
		h.portUse[i]++
	}
}

// removeConn forgets c. A connection that is not registered — it found
// no port to dial from, or was removed before — holds nothing to release.
func (h *Host) removeConn(c *Conn) {
	if h.tab.conns[c.flow] != c {
		return
	}
	delete(h.tab.conns, c.flow)
	last := h.conns[len(h.conns)-1]
	h.conns[c.slot], last.slot = last, c.slot
	h.conns[len(h.conns)-1] = nil
	h.conns = h.conns[:len(h.conns)-1]
	if i := int(c.flow.SrcPort) - ephemeralBase; i >= 0 {
		h.portUse[i]--
		if h.portUse[i] == 0 {
			h.portsBusy--
		}
	}
}

// ConnCount returns the number of live connections (debug/tests).
func (h *Host) ConnCount() int { return len(h.conns) }

// ResetConns aborts every live connection on the host, modeling a
// process crash: sockets die with the process, so no half-open peer
// keeps retransmitting state the restarted process no longer has.
// Connections are torn down in flow-key order for determinism.
func (h *Host) ResetConns() {
	keys := make([]simnet.FlowKey, len(h.conns))
	for i, c := range h.conns {
		keys[i] = c.flow
	}
	sort.Slice(keys, func(i, j int) bool { return flowLess(keys[i], keys[j]) })
	for _, k := range keys {
		if c, ok := h.tab.conns[k]; ok {
			c.Abort()
		}
	}
}

func flowLess(a, b simnet.FlowKey) bool {
	switch {
	case a.Src != b.Src:
		return a.Src < b.Src
	case a.Dst != b.Dst:
		return a.Dst < b.Dst
	case a.SrcPort != b.SrcPort:
		return a.SrcPort < b.SrcPort
	case a.DstPort != b.DstPort:
		return a.DstPort < b.DstPort
	default:
		return a.Proto < b.Proto
	}
}

func (h *Host) deliver(p *simnet.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok {
		return // not transport traffic
	}
	local := p.Flow.Reverse()
	if c, ok := h.tab.conns[local]; ok {
		c.handle(seg)
		h.tab.freeSeg(seg)
		return
	}
	if seg.Kind == SegSYN {
		if l := h.listener(p.Flow.DstPort); l != nil {
			c := &Conn{
				host:      h,
				flow:      local,
				state:     stateEstablished,
				cc:        NewController("reno", h.tab.sched.Now),
				peerWnd:   int32(seg.Wnd),
				lastTSVal: seg.TSVal,
			}
			h.addConn(c)
			if l.onAccept != nil {
				l.onAccept(c)
			}
			c.emit(c.seg(SegSYNACK), 0)
		}
		// else: connection refused, silently dropped in this model.
	}
	// Non-SYN for unknown connection: stale packet after close; ignore.
	h.tab.freeSeg(seg)
}
