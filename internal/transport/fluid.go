package transport

import (
	"slices"
	"time"
)

// Fluid fast path: under flow or hybrid fidelity, bulk messages are
// carried by the simnet flow engine as analytic rate-shared flows
// instead of MSS-sized packet trains.
//
// Stream semantics are preserved exactly. A fluid-eligible message
// occupies its normal range of sequence space, and its end sits in
// Conn.bounds like any other message's; the packet path sends
// everything before it, then the range is handed to the engine
// (startFluid) and sndNxt parks at its start. At the analytic
// completion time the bytes count as sent, sndNxt jumps to the range
// end, and after the path's propagation delay one macro SegDATA
// "notice" materializes at the destination node — delivered locally,
// since the payload already traversed the network as fluid. The
// receiver runs its ordinary processData/ACK machinery on the notice,
// so delivery callbacks, FIN sequencing, and cumulative ACKs are all
// driven by the same code as packet mode, and a lost ACK is repaired
// by the existing RTO (which resends the notice, deduplicated by the
// receiver's lastBound watermark).
//
// Congestion control is bypassed for fluid bytes — the engine's
// max-min fair share replaces it — so acked fluid spans are subtracted
// before cc.OnAck and from the in-flight window math. Only reno/cubic
// connections use the fast path: scavenger controllers (ledbat, lp)
// exist to yield to foreground packets, a behavior fair sharing would
// erase.
//
// If the engine demotes the flow (contention in hybrid mode,
// impairment/down/qdisc in any mode), the range leaves Conn.fluid and
// the packet path sends it whole — re-sending from the range start is
// the documented approximation; the receiver has seen none of it. The
// message's end never left Conn.bounds, so the segment that reaches it
// carries it as it would have without the detour.

// FluidCutover is the message size, in bytes, at which flow and hybrid
// fidelity promote a message to a fluid flow. Smaller messages —
// RPC-sized — keep exact packet behavior in every mode, which is what
// keeps latency metrics comparable across fidelities.
const FluidCutover = 4096

// fluidRange is the byte range one fluid-eligible message occupies in
// the send stream. Conn.fluid holds them in stream order: the first
// fluidDone are delivered but not yet cumulatively acked — they gate cc
// crediting and window accounting, and are what an RTO re-announces —
// and the rest are queued, the first of those in the engine while
// fluidActive.
type fluidRange struct{ seq, end uint64 }

// FluidCompleted returns messages delivered via the fluid fast path.
func (c *Conn) FluidCompleted() uint64 { return uint64(c.fluidCompleted) }

// FluidDemotions returns fluid flows demoted back to the packet path.
func (c *Conn) FluidDemotions() uint64 { return uint64(c.fluidDemotions) }

// shouldFluid reports whether a message of the given size should ride
// the fluid fast path on this connection.
func (c *Conn) shouldFluid(size int) bool {
	if c.host.tab.net.FlowEngine() == nil || size < FluidCutover {
		return false
	}
	switch c.cc.Name() {
	case "reno", "cubic":
	default:
		return false // scavenger CCs deliberately yield; keep them on packets
	}
	return true
}

// startFluid hands the first queued range to the flow engine. The
// caller has already packet-sent every byte before it (sndNxt is its
// seq). Returns false if the path is unusable, in which case the range
// is removed and falls back to the packet path.
func (c *Conn) startFluid() bool {
	eng := c.host.tab.net.FlowEngine()
	r := c.fluid[c.fluidDone]
	path, prop, ok := eng.ResolvePath(c.host.node, c.flow)
	if ok && !eng.PathEligible(path) {
		// Impaired, down, custom-qdisc, or backlogged hops need exact
		// packet behavior in every fidelity — loss and AQM do not exist
		// in the fluid model.
		ok = false
	}
	if !ok {
		c.unqueueFluid()
		return false
	}
	if c.fluidDoneFn == nil {
		c.fluidDoneFn = c.onFluidComplete
		c.fluidDemoteFn = c.onFluidDemote
	}
	c.fluidProp = prop
	c.fluidActive = true
	c.fluidID = eng.Start(path, int64(r.end-r.seq), c.fluidDoneFn, c.fluidDemoteFn)
	return true
}

// onFluidComplete runs at the analytic completion time: the last byte
// has left the source. The bytes count as sent, and the delivery
// notice materializes at the destination after the path's one-way
// propagation delay.
func (c *Conn) onFluidComplete() {
	if c.state != stateEstablished || !c.fluidActive {
		return
	}
	r := c.fluid[c.fluidDone]
	c.fluidDone++
	c.fluidActive = false
	c.fluidID = 0
	c.fluidCompleted++
	c.sndNxt = r.end
	completed := c.host.tab.sched.Now()
	c.host.tab.sched.After(c.fluidProp, func() {
		c.injectFluidNotice(r, completed)
	})
	c.armRTO()
	c.trySend()
}

// onFluidDemote runs (deferred through the scheduler by the engine)
// when the active flow is demoted to packet fidelity. The range goes
// to the packet path from its start.
func (c *Conn) onFluidDemote() {
	if c.state != stateEstablished || !c.fluidActive {
		return
	}
	c.fluidActive = false
	c.fluidID = 0
	c.fluidDemotions++
	c.unqueueFluid()
	c.trySend()
}

// unqueueFluid removes the first queued range, leaving its bytes to
// the packet path.
func (c *Conn) unqueueFluid() {
	c.fluid = slices.Delete(c.fluid, int(c.fluidDone), int(c.fluidDone)+1)
}

// injectFluidNotice delivers the macro segment for a completed fluid
// range directly at the destination node: the payload already crossed
// the network as fluid, so the notice takes no link resources and
// cannot be lost. completedAt becomes TSVal so the receiver's ACK
// yields a true path-RTT sample; pass 0 (RTO resends) to suppress the
// sample, Karn-style.
func (c *Conn) injectFluidNotice(r fluidRange, completedAt time.Duration) {
	if c.state == stateClosed {
		return
	}
	dst := c.host.tab.net.NodeByAddr(c.flow.Dst)
	if dst == nil {
		return
	}
	s := c.host.tab.allocSeg()
	s.Kind = SegDATA
	s.Wnd = rcvWindow
	s.TSVal = completedAt
	s.TSEcr = c.lastTSVal
	s.Seq = r.seq
	s.Len = int(r.end - r.seq)
	s.Bounds = c.boundsIn(s.Bounds, s.Seq, s.Len)
	p := c.host.tab.net.AllocPacket()
	p.Flow = c.flow
	p.Size = ctrlSize // the data went fluid; this is only the delivery notice
	p.Mark = c.mark
	p.Payload = s //meshvet:allow poolescape the segment rides in the packet; the receiving host frees it after handling
	dst.Inject(p)
}

// resendFluidNotice re-announces the oldest delivered, unacked range —
// the RTO path for a lost ACK of a fluid delivery. TSVal 0 suppresses
// RTT sampling from the retransmit.
func (c *Conn) resendFluidNotice() {
	if c.fluidDone > 0 {
		c.injectFluidNotice(c.fluid[0], 0)
	}
}

// ackFluidSpans consumes delivered ranges cumulatively acked up to upTo
// and returns how many fluid bytes that covered — bytes the congestion
// controller must not be credited with.
func (c *Conn) ackFluidSpans(upTo uint64) int {
	n, k := 0, 0
	for ; k < int(c.fluidDone) && c.fluid[k].seq < upTo; k++ {
		r := &c.fluid[k]
		if r.end > upTo {
			n += int(upTo - r.seq)
			r.seq = upTo
			break
		}
		n += int(r.end - r.seq)
	}
	c.fluid = slices.Delete(c.fluid, 0, k)
	c.fluidDone -= int32(k)
	return n
}

// fluidOutstanding returns fluid-delivered bytes not yet acked. They
// are excluded from packet window math: the engine's fair share, not
// cwnd, governed them.
func (c *Conn) fluidOutstanding() uint64 {
	var n uint64
	for _, r := range c.fluid[:c.fluidDone] {
		n += r.end - r.seq
	}
	return n
}

// cancelFluid releases the active flow at teardown.
func (c *Conn) cancelFluid() {
	if !c.fluidActive {
		return
	}
	if eng := c.host.tab.net.FlowEngine(); eng != nil {
		eng.Cancel(c.fluidID)
	}
	c.fluidActive = false
	c.fluidID = 0
}
