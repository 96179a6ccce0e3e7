package simnet

import (
	"fmt"
	"time"
)

// LinkConfig describes one point-to-point link. Links are full duplex:
// Rate applies independently to each direction.
type LinkConfig struct {
	// Rate is the line rate in bits per second. Must be > 0.
	Rate int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes bounds each direction's egress FIFO. <= 0 selects
	// DefaultFIFOLimit. Ignored for directions that later have a custom
	// qdisc installed via NIC.SetQdisc.
	QueueBytes int
}

// Gbps and Mbps are convenience multipliers for LinkConfig.Rate.
const (
	Kbps int64 = 1_000
	Mbps int64 = 1_000_000
	Gbps int64 = 1_000_000_000
)

// Link is a full-duplex point-to-point link between two NICs.
type Link struct {
	id   int
	cfg  LinkConfig
	a, b *NIC
	down bool // administratively down via SetDown
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// A returns the NIC on the first endpoint (the node passed first to
// Connect); B the second.
func (l *Link) A() *NIC { return l.a }

// B returns the NIC on the second endpoint.
func (l *Link) B() *NIC { return l.b }

// ID returns the link's index within its Network.
func (l *Link) ID() int { return l.id }

// String identifies the link by its endpoints.
func (l *Link) String() string {
	return fmt.Sprintf("link%d(%s<->%s)", l.id, l.a.node.Name(), l.b.node.Name())
}

// SetDown blackholes (down = true) or restores (down = false) both
// directions of the link by installing a LossProb-1 impairment on each
// NIC — the primitive correlated-failure scenarios use to sever a zone
// uplink or spine link in one call. Restoring clears any impairment on
// the link, including one installed before SetDown(true).
func (l *Link) SetDown(down bool) {
	var cfg Impairment
	if down {
		cfg = Impairment{LossProb: 1}
	}
	l.a.Impair(cfg)
	l.b.Impair(cfg)
	l.down = down
}

// Down reports whether the link is administratively down via SetDown.
func (l *Link) Down() bool { return l.down }

// serializationDelay returns the time to clock size bytes onto the wire.
func (l *Link) serializationDelay(size int) time.Duration {
	return time.Duration(float64(size*8) / float64(l.cfg.Rate) * float64(time.Second))
}

// NIC is one endpoint of a Link. Outbound packets pass through its
// egress qdisc; the NIC serializes one packet at a time at the link
// rate, then the packet propagates for the link delay and is handed to
// the peer node.
type NIC struct {
	node  *Node
	link  *Link
	peer  *NIC
	qdisc Qdisc
	busy  bool

	// Stats.
	txPackets, txBytes uint64
	dropPackets        uint64

	wakeTimer Timer
	impair    *impairedDir
	tap       Tap

	// txPacket is the packet currently being serialized (one at a time
	// per direction); the wire event that ends its serialisation names
	// only the NIC.
	txPacket *Packet

	// Flow-engine state, owned by FlowEngine. fluidRate is the aggregate
	// fluid throughput (bytes/sec) crossing this NIC — always 0 in packet
	// fidelity. The rest is recompute's scratch: fluidSeen marks the NIC
	// as in the scope of the next (or running) recompute, fluidCap and
	// fluidCnt are progressive filling's residual capacity and unfrozen
	// flow count. Kept as fields rather than engine-side maps so the
	// recompute hot path and the per-packet serializeDelay lookup stay
	// allocation- and hash-free.
	fluidRate float64
	fluidCap  float64
	fluidCnt  int
	fluidSeen bool
}

// Node returns the node the NIC belongs to.
func (n *NIC) Node() *Node { return n.node }

// Link returns the attached link.
func (n *NIC) Link() *Link { return n.link }

// Peer returns the NIC at the other end of the link.
func (n *NIC) Peer() *NIC { return n.peer }

// Qdisc returns the egress queueing discipline.
func (n *NIC) Qdisc() Qdisc { return n.qdisc }

// SetQdisc replaces the egress qdisc. Packets already queued in the old
// discipline are dropped (mirroring `tc qdisc replace`). Fluid flows
// crossing this NIC demote: custom disciplines only exist in the
// packet model.
func (n *NIC) SetQdisc(q Qdisc) {
	if q == nil {
		q = NewFIFO(0)
	}
	n.qdisc = q
	if e := n.node.net.flowEng; e != nil {
		e.demoteNIC(n)
	}
}

// Tap observes every packet a NIC serializes (after qdisc scheduling,
// before any impairment). Taps must not mutate the packet.
type Tap func(p *Packet, at time.Duration)

// SetTap installs (or clears, with nil) the NIC's transmit tap.
func (n *NIC) SetTap(t Tap) { n.tap = t }

// TxBytes returns cumulative bytes serialized onto the link.
// SDN-style controllers poll this to estimate utilization.
func (n *NIC) TxBytes() uint64 { return n.txBytes }

// TxPackets returns cumulative packets serialized onto the link.
func (n *NIC) TxPackets() uint64 { return n.txPackets }

// Drops returns packets dropped at enqueue by the egress qdisc.
func (n *NIC) Drops() uint64 { return n.dropPackets }

// QueueDepth returns the current egress backlog in bytes.
func (n *NIC) QueueDepth() int { return n.qdisc.Backlog() }

// Send enqueues a packet for transmission. The packet is dropped if the
// qdisc rejects it.
func (n *NIC) Send(p *Packet) {
	sched := n.node.net.sched
	p.EnqueuedAt = sched.Now()
	if !n.qdisc.Enqueue(p) {
		n.dropPackets++
		n.node.net.notifyDrop(p, n)
		n.node.net.freePacket(p)
		return
	}
	if e := n.node.net.flowEng; e != nil {
		e.noteSend(n, p.Size)
	}
	if !n.busy {
		n.transmitNext()
	}
}

// transmitNext pulls the next eligible packet from the qdisc and clocks
// it onto the wire. If the qdisc holds packets that only become eligible
// later (shapers), a wake-up is scheduled.
func (n *NIC) transmitNext() {
	sched := n.node.net.sched
	p := n.qdisc.Dequeue()
	if p == nil {
		n.busy = false
		if w, ok := n.qdisc.(Waker); ok {
			if at, ok := w.NextWake(sched.Now()); ok {
				n.scheduleWake(at)
			}
		}
		return
	}
	n.busy = true
	if p.SentAt == 0 {
		p.SentAt = sched.Now()
	}
	tx := n.serializeDelay(p.Size)
	n.txPackets++
	n.txBytes += uint64(p.Size)
	if n.tap != nil {
		n.tap(p, sched.Now())
	}
	n.txPacket = p //meshvet:allow poolescape NIC owns the packet while it serializes; handed off or freed in onTxDone
	sched.afterWire(tx, n, nil)
}

// onTxDone runs when the current packet's last bit hits the wire:
// apply any impairment, propagate, then free the line.
func (n *NIC) onTxDone() {
	p := n.txPacket
	n.txPacket = nil
	extra := time.Duration(0)
	deliver := true
	if n.impair != nil {
		extra, deliver = n.impair.apply(p)
	}
	if deliver {
		n.node.net.sched.afterWire(n.link.cfg.Delay+extra, n.peer, p)
	} else {
		n.node.net.notifyDrop(p, n)
		n.node.net.freePacket(p)
	}
	n.transmitNext()
}

func (n *NIC) scheduleWake(at time.Duration) {
	sched := n.node.net.sched
	if !n.wakeTimer.Stopped() {
		return
	}
	n.wakeTimer = sched.At(at, func() {
		if !n.busy {
			n.transmitNext()
		}
	})
}
