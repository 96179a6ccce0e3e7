package transport

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"meshlayer/internal/simnet"
)

// Options configure a connection at Dial time.
type Options struct {
	// CC names the congestion controller: "reno" (default), "cubic",
	// "ledbat", "lp".
	CC string
	// Mark is stamped on every outgoing packet; TC filters match it.
	Mark simnet.Mark
	// MinRTO lower-bounds the retransmission timeout. Zero selects
	// DefaultMinRTO.
	MinRTO time.Duration
}

// DefaultMinRTO mirrors the Linux default minimum RTO.
const DefaultMinRTO = 200 * time.Millisecond

// maxConsecRTOs bounds back-to-back retransmission timeouts with no
// forward progress before the connection gives up (Linux
// tcp_retries2, scaled down for simulation): a peer that stays
// unreachable kills the connection instead of retransmitting forever.
// High enough that chains of unlucky losses on a merely-lossy link
// essentially never trip it.
const maxConsecRTOs = 12

// rcvWindow is the advertised receive window. Receivers consume
// instantly in this model, so flow control never binds in practice.
const rcvWindow = 8 << 20

type connState uint8

const (
	stateSynSent connState = iota + 1
	stateEstablished
	stateClosed
)

// ErrConnectTimeout is passed to OnClose when the handshake fails.
var ErrConnectTimeout = errors.New("transport: connect timed out")

// ErrNoEphemeralPort is passed to OnClose when Dial found all 32768
// ephemeral source ports of the host carrying a connection.
var ErrNoEphemeralPort = errors.New("transport: no free ephemeral port")

// ErrReset is passed to OnClose when the connection is torn down
// abruptly by Abort.
var ErrReset = errors.New("transport: connection reset")

// ErrRetransmitLimit is passed to OnClose when maxConsecRTOs
// retransmission timeouts elapse without the peer acking anything.
var ErrRetransmitLimit = errors.New("transport: retransmission limit exceeded")

// segInfo is one unacked segment. A bulk sender's window holds one per
// MSS in flight, so it is kept to 16 B: a 63-slot window fits the 1 KB
// allocation class (TestSegInfoSize).
type segInfo struct {
	seq    uint64
	length int32
	rtxed  bool // retransmitted since the last RTO
	sacked bool // covered by a received SACK block
}

// Conn is one endpoint of a reliable message stream. All methods must
// be called from scheduler context (the simulation is single-threaded).
//
// A fleet holds two Conns per pooled connection for the whole run, so
// the struct keeps only what every connection uses on every segment
// (TestConnSizeClass). What only loss touches lives in connCold, behind
// a pointer that stays nil on a connection that never sees a dup ACK,
// an RTO or an out-of-order arrival.
type Conn struct {
	host  *Host
	flow  simnet.FlowKey // local perspective: Src is this host
	state connState
	// The flags, the packet mark and the SYN count share a word with
	// state, and the host slot and peer window the next one.
	recovering, finQueued, finSent bool        // send side
	peerFin                        bool        // receive side
	fluidActive                    bool        // fluid: fluid[fluidDone] is in the engine right now
	mark                           simnet.Mark // stamped on every outgoing packet
	synTries                       uint8       // SYNs sent; the handshake gives up after 4
	slot                           int32       // index in host.conns while registered
	peerWnd                        int32
	cc                             Controller

	// Callbacks. Set them before data flows.
	onMessage     func(meta any, size int)
	onEstablished func()
	onClose       func(err error)

	// Send side. sndUna is also the count of acked bytes: the stream
	// starts at 0 and the FIN's sequence byte is acked like data.
	sndUna, sndNxt uint64
	sendEnd        uint64
	bounds         []Bound   // every queued message end above sndUna, ascending
	segs           []segInfo // unacked segments are segs[segHead:]; see pushSeg
	segHead        int32
	fluidDone      int32 // how many of fluid are delivered

	// Receive side.
	rcvNxt     uint64
	recvBounds []Bound
	lastBound  uint64
	peerFinSeq uint64
	lastTSVal  time.Duration

	// RTT estimation / RTO.
	srtt, rttvar  time.Duration
	rto           time.Duration
	lastRTTSample time.Duration
	// timer is the SYN retry until the handshake completes and the RTO
	// after: nothing arms an RTO before the connection is established.
	timer simnet.Timer
	rtoFn func() // c.onRTO, bound once: armRTO runs per ACK and a method value allocates

	cold *connCold // nil until the first loss; see lossState

	// Fluid fast path (flow/hybrid fidelity; see fluid.go). It stays
	// inline: a bulk sender uses it once per message, and a lazily
	// allocated copy would cost an allocation per fluid connection.
	fluid          []fluidRange  // fluid ranges in stream order: delivered but unacked, then queued
	fluidID        simnet.FlowID // engine handle for the active flow
	fluidProp      time.Duration // one-way prop delay of the active path
	fluidDoneFn    func()        // bound callbacks, allocated once
	fluidDemoteFn  func()
	fluidCompleted uint32 // messages delivered via the fast path
	fluidDemotions uint32 // flows demoted back to packets
}

// connCold is the connection state a lossless connection never
// touches: loss recovery, the receiver's out-of-order list and the loss
// counters, plus a dialled MinRTO. Loss recovery's future fields belong
// here too, not in Conn (TestConnColdStateSize).
type connCold struct {
	dupAcks int32
	// Consecutive RTOs with no ACK progress; the connection dies at
	// maxConsecRTOs.
	consecRTOs  int32
	recoverPt   uint64
	ooo         []oooSeg
	optMinRTO   time.Duration // Options.MinRTO as dialled; see minRTO
	retransmits uint64
	timeouts    uint64
}

// lossState returns the connection's cold state, allocating it on the
// first loss event.
func (c *Conn) lossState() *connCold {
	if c.cold == nil {
		c.cold = new(connCold)
	}
	return c.cold
}

type oooSeg struct {
	seq uint64
	end uint64
}

// Flow returns the connection's flow key from the local perspective.
func (c *Conn) Flow() simnet.FlowKey { return c.flow }

// SetOnMessage registers the message-delivery callback.
func (c *Conn) SetOnMessage(fn func(meta any, size int)) { c.onMessage = fn }

// SetOnEstablished registers the handshake-completion callback
// (client side only; server conns are established at accept).
func (c *Conn) SetOnEstablished(fn func()) { c.onEstablished = fn }

// SetOnClose registers the teardown callback (replacing any previous
// one).
func (c *Conn) SetOnClose(fn func(err error)) { c.onClose = fn }

// SetMark changes the packet mark for all subsequent transmissions —
// the hook the cross-layer controller uses to re-prioritize a pooled
// connection per request.
func (c *Conn) SetMark(m simnet.Mark) { c.mark = m }

// Mark returns the current packet mark.
func (c *Conn) Mark() simnet.Mark { return c.mark }

// CCName returns the congestion controller's name.
func (c *Conn) CCName() string { return c.cc.Name() }

// SetCongestionControl swaps the congestion controller (fresh state) —
// used by the cross-layer controller to move latency-insensitive
// transfers onto a scavenger protocol without touching the application.
func (c *Conn) SetCongestionControl(name string) {
	if name == c.cc.Name() {
		return
	}
	c.cc = NewController(name, c.host.tab.sched.Now)
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Closed reports whether the connection is fully closed.
func (c *Conn) Closed() bool { return c.state == stateClosed }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Retransmits returns the count of retransmitted segments.
func (c *Conn) Retransmits() uint64 {
	if c.cold == nil {
		return 0
	}
	return c.cold.retransmits
}

// Timeouts returns the count of RTO expirations.
func (c *Conn) Timeouts() uint64 {
	if c.cold == nil {
		return 0
	}
	return c.cold.timeouts
}

// BytesAcked returns cumulatively acknowledged payload bytes. An
// active fluid flow contributes its analytic progress: its bytes are
// governed by the engine's fair share rather than acks, and counting
// them only at the final delivery notice would make the goodput of a
// long-lived bulk transfer read as zero under flow or hybrid fidelity.
// Progress of a flow that is later demoted is re-earned by the packet
// path, so the value can briefly regress across a demotion.
func (c *Conn) BytesAcked() uint64 {
	n := c.sndUna
	if c.fluidActive {
		if eng := c.host.tab.net.FlowEngine(); eng != nil {
			if rem, ok := eng.Remaining(c.fluidID); ok {
				r := c.fluid[c.fluidDone]
				if size := float64(r.end - r.seq); rem < size {
					n += uint64(size - rem)
				}
			}
		}
	}
	return n
}

// InFlight returns unacknowledged bytes.
func (c *Conn) InFlight() int { return int(c.sndNxt - c.sndUna) }

// Window returns the current effective send window in bytes.
func (c *Conn) Window() int { return min(c.cc.Window(), int(c.peerWnd)) }

// SendMessage queues a message of size wire bytes; the peer's OnMessage
// fires with meta when the final byte arrives in order. Sending on a
// closed connection is an error.
func (c *Conn) SendMessage(meta any, size int) error {
	if c.state == stateClosed {
		return fmt.Errorf("transport: send on closed connection %v", c.flow)
	}
	if c.finQueued {
		return fmt.Errorf("transport: send after close on %v", c.flow)
	}
	if size <= 0 {
		size = 1 // a message occupies at least one byte of stream space
	}
	c.sendEnd += uint64(size)
	c.bounds = append(c.bounds, Bound{End: c.sendEnd, Meta: meta})
	if c.shouldFluid(size) {
		c.fluid = append(c.fluid, fluidRange{seq: c.sendEnd - uint64(size), end: c.sendEnd})
	}
	if c.state == stateEstablished {
		c.trySend()
	}
	return nil
}

// Close queues a FIN after all pending data. Delivery callbacks on the
// peer still fire for data ahead of the FIN.
func (c *Conn) Close() {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	if c.state == stateEstablished {
		c.trySend()
	}
}

// Abort tears the connection down immediately without a handshake.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.teardown(ErrReset)
}

func (c *Conn) teardown(err error) {
	c.state = stateClosed
	c.cancelFluid()
	c.timer.Cancel()
	c.host.removeConn(c)
	if c.onClose != nil {
		fn := c.onClose
		c.onClose = nil
		fn(err)
	}
}

// --- sending ---

// seg allocates a pooled segment pre-filled with the fields every
// outgoing segment carries: the advertised window and the timestamp
// pair (TSVal now, TSEcr echoing the peer's last TSVal). Callers
// overwrite TSEcr where the echo must come from a specific segment.
func (c *Conn) seg(kind SegKind) *Segment {
	s := c.host.tab.allocSeg()
	s.Kind = kind
	s.Wnd = rcvWindow
	s.TSVal = c.host.tab.sched.Now()
	s.TSEcr = c.lastTSVal
	return s
}

func (c *Conn) emit(seg *Segment, payloadBytes int) {
	p := c.host.tab.net.AllocPacket()
	p.Flow = c.flow
	p.Size = simnet.HeaderBytes + payloadBytes
	p.Mark = c.mark
	p.Payload = seg //meshvet:allow poolescape the segment rides in the packet; the receiving host frees it after handling
	if seg.Kind != SegDATA && seg.Kind != SegFIN {
		p.Size = ctrlSize
	}
	c.host.node.Inject(p)
}

func (c *Conn) trySend() {
	if c.state != stateEstablished {
		return
	}
	for {
		// Packet-send up to the next fluid range (or everything, when
		// none is queued — the packet-mode hot path, byte-identical to
		// the historical loop).
		limit, queued := c.sendEnd, int(c.fluidDone) < len(c.fluid)
		if queued {
			limit = c.fluid[c.fluidDone].seq
		}
		c.sendWindow(limit)
		if !queued || c.fluidActive || c.sndNxt != limit {
			break
		}
		if c.startFluid() {
			break
		}
		// The range fell back to the packet path; re-derive the limit
		// and keep sending.
	}
	c.maybeSendFIN()
}

// sendWindow emits MSS-sized segments of [sndNxt, limit) as the
// congestion and peer windows allow.
func (c *Conn) sendWindow(limit uint64) {
	wnd := uint64(c.Window())
	for c.sndNxt < limit {
		inFlight := c.sndNxt - c.sndUna - c.fluidOutstanding()
		if inFlight >= wnd {
			break
		}
		n := uint64(MSS)
		if avail := limit - c.sndNxt; avail < n {
			n = avail
		}
		if wnd-inFlight < n {
			// Avoid silly-window syndrome: never chop a full segment
			// to fit a fractional window opening; wait for more ACKs.
			break
		}
		c.sendSegment(c.sndNxt, int(n))
		c.sndNxt += n
	}
}

func (c *Conn) sendSegment(seq uint64, length int) {
	c.pushSeg(segInfo{seq: seq, length: int32(length)})
	s := c.seg(SegDATA)
	s.Seq = seq
	s.Len = length
	s.Bounds = c.boundsIn(s.Bounds, seq, length)
	c.emit(s, length)
	c.armRTO()
}

// boundsIn appends to dst the queued message ends inside (seq,
// seq+length]. The ends are copied into the segment's own array: a
// duplicate can still be in flight when an ACK moves c.bounds.
func (c *Conn) boundsIn(dst []Bound, seq uint64, length int) []Bound {
	end := seq + uint64(length)
	i := sort.Search(len(c.bounds), func(i int) bool { return c.bounds[i].End > seq })
	for ; i < len(c.bounds) && c.bounds[i].End <= end; i++ {
		dst = append(dst, c.bounds[i])
	}
	return dst
}

// pushSeg appends to segs. processAck prunes by advancing segHead, so
// the window creeps along the array; when it reaches the end it slides
// back to the first slot if the acked prefix is at least as long as the
// window, and moves to an array twice the size otherwise. Left to append
// alone, a bulk sender whose window never empties would reallocate the
// array once per window of segments. A drained connection keeps its
// array (at most twice its widest window): releasing it would have every
// request/response exchange grow it again from one slot.
func (c *Conn) pushSeg(s segInfo) {
	if len(c.segs) == cap(c.segs) {
		live, arr := c.unacked(), c.segs
		if int(c.segHead) < max(len(live), 1) {
			arr = make([]segInfo, 0, 2*len(live)+1)
		}
		c.segs = arr[:copy(arr[:len(live)], live)]
		c.segHead = 0
	}
	c.segs = append(c.segs, s)
}

// unacked returns the window of unacked segments.
func (c *Conn) unacked() []segInfo { return c.segs[c.segHead:] }

func (c *Conn) maybeSendFIN() {
	if !c.finQueued || c.finSent || c.sndNxt != c.sendEnd {
		return
	}
	if c.sndNxt-c.sndUna-c.fluidOutstanding() >= uint64(c.Window()) {
		return
	}
	c.finSent = true
	finSeq := c.sndNxt
	c.sendEnd++ // FIN occupies one sequence byte
	c.sndNxt++
	c.pushSeg(segInfo{seq: finSeq, length: 1})
	s := c.seg(SegFIN)
	s.Seq = finSeq
	s.Len = 1
	c.emit(s, 0)
	c.armRTO()
}

func (c *Conn) retransmitSeg(s *segInfo) {
	c.lossState().retransmits++
	s.rtxed = true
	kind := SegDATA
	length := int(s.length)
	payload := length
	if c.finSent && s.seq == c.sendEnd-1 {
		kind = SegFIN
		payload = 0
	}
	rs := c.seg(kind)
	rs.Seq = s.seq
	rs.Len = length
	rs.Bounds = c.boundsIn(rs.Bounds, s.seq, length)
	c.emit(rs, payload)
}

func (c *Conn) retransmitFirst() {
	if segs := c.unacked(); len(segs) > 0 {
		c.retransmitSeg(&segs[0])
	}
}

// rtxBurst bounds loss-repair retransmissions per incoming ACK.
const rtxBurst = 4

// sackRetransmit repairs holes signalled by SACK: segments below the
// highest sacked byte that are neither sacked nor already repaired are
// presumed lost (RFC 6675 spirit).
func (c *Conn) sackRetransmit() {
	segs := c.unacked()
	var highest uint64
	for i := range segs {
		if segs[i].sacked {
			if end := segs[i].seq + uint64(segs[i].length); end > highest {
				highest = end
			}
		}
	}
	if highest == 0 {
		return
	}
	sent := 0
	for i := range segs {
		s := &segs[i]
		if s.seq >= highest {
			break
		}
		if s.sacked || s.rtxed {
			continue
		}
		c.retransmitSeg(s)
		sent++
		if sent >= rtxBurst {
			return
		}
	}
}

func (c *Conn) applySacks(sacks []SackBlock) {
	if len(sacks) == 0 {
		return
	}
	segs := c.unacked()
	for i := range segs {
		s := &segs[i]
		if s.sacked {
			continue
		}
		end := s.seq + uint64(s.length)
		for _, b := range sacks {
			if s.seq >= b.Start && end <= b.End {
				s.sacked = true
				break
			}
		}
	}
}

// --- RTO ---

func (c *Conn) minRTO() time.Duration {
	if k := c.cold; k != nil && k.optMinRTO > 0 {
		return k.optMinRTO
	}
	return DefaultMinRTO
}

func (c *Conn) currentRTO() time.Duration {
	if c.rto == 0 {
		return max(c.minRTO(), time.Second)
	}
	return c.rto
}

// armRTO (re)starts the retransmission timer. It runs on every ACK
// that advances the window and almost never fires, so it re-arms in
// place rather than cancelling and scheduling anew.
func (c *Conn) armRTO() {
	if c.rtoFn == nil {
		c.rtoFn = c.onRTO
	}
	sched := c.host.tab.sched
	c.timer = sched.Rearm(c.timer, sched.Now()+c.currentRTO(), c.rtoFn)
}

func (c *Conn) disarmRTO() {
	c.timer.Cancel()
	c.timer = simnet.Timer{}
}

func (c *Conn) onRTO() {
	if c.state != stateEstablished || c.sndUna == c.sndNxt {
		return
	}
	k := c.lossState()
	k.timeouts++
	k.consecRTOs++
	if k.consecRTOs >= maxConsecRTOs {
		c.teardown(ErrRetransmitLimit)
		return
	}
	segs := c.unacked()
	if len(segs) == 0 && c.fluidDone > 0 {
		// Only fluid-delivered bytes are unacked: the delivery notice's
		// ACK was lost. Re-announce it — the receiver deduplicates via
		// its lastBound watermark — and leave cc alone: fluid bytes were
		// never under its control.
		c.rto = min(c.currentRTO()*2, 60*time.Second)
		c.resendFluidNotice()
		c.armRTO()
		return
	}
	c.cc.OnTimeout()
	k.dupAcks = 0
	// Stay in loss recovery until everything outstanding at the
	// timeout is acknowledged, so partial ACKs keep driving repairs.
	c.recovering = true
	k.recoverPt = c.sndNxt
	// Everything outstanding may be retransmitted again.
	for i := range segs {
		segs[i].rtxed = false
	}
	c.rto = min(c.currentRTO()*2, 60*time.Second) // exponential backoff
	c.retransmitFirst()
	c.armRTO()
}

// sampleRTT folds the RTT that tsecr, an echoed TSVal, measures into
// the estimate.
func (c *Conn) sampleRTT(tsecr time.Duration) {
	rtt := c.host.tab.sched.Now() - tsecr
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = max(c.srtt+4*c.rttvar, c.minRTO())
	c.lastRTTSample = rtt
}

// --- receiving ---

func (c *Conn) handle(seg *Segment) {
	if c.state == stateClosed {
		return
	}
	switch seg.Kind {
	case SegSYN:
		// Duplicate SYN: our SYNACK was lost in transit; resend it.
		c.lastTSVal = seg.TSVal
		c.emit(c.seg(SegSYNACK), 0)
	case SegSYNACK:
		if c.state == stateSynSent {
			c.state = stateEstablished
			c.timer.Cancel() // the SYN retry; the RTO has the timer from here on
			c.peerWnd = int32(seg.Wnd)
			c.sampleRTT(seg.TSEcr) // a SYNACK echoes its SYN, even one sent at t = 0
			ack := c.seg(SegACK)
			ack.TSEcr = seg.TSVal
			c.emit(ack, 0)
			if c.onEstablished != nil {
				c.onEstablished()
			}
			c.trySend()
		}
	case SegACK:
		if seg.Wnd > 0 {
			c.peerWnd = int32(seg.Wnd)
		}
		c.processAck(seg)
	case SegDATA, SegFIN:
		c.lastTSVal = seg.TSVal
		c.processData(seg)
	}
}

func (c *Conn) processAck(seg *Segment) {
	c.applySacks(seg.Sacks)
	if seg.Ack > c.sndUna {
		acked := int(seg.Ack - c.sndUna)
		c.sndUna = seg.Ack
		if k := c.cold; k != nil {
			k.dupAcks = 0
			k.consecRTOs = 0
		}
		// Prune fully acked segments, and message ends by copying the rest
		// down: bounds keeps its array (DESIGN.md "Queues that keep their
		// arrays").
		segs := c.unacked()
		i := 0
		for i < len(segs) && segs[i].seq+uint64(segs[i].length) <= c.sndUna {
			i++
		}
		c.segHead += int32(i)
		for i = 0; i < len(c.bounds) && c.bounds[i].End <= c.sndUna; {
			i++
		}
		c.bounds = slices.Delete(c.bounds, 0, i)
		if seg.TSEcr > 0 { // 0 echoes resendFluidNotice's "no sample"
			c.sampleRTT(seg.TSEcr)
		}
		// Fluid bytes bypass congestion control: the engine's fair share
		// governed them, so cc is only credited with packet-path bytes.
		if fluid := c.ackFluidSpans(c.sndUna); fluid > 0 {
			acked -= fluid
		}
		if acked > 0 {
			c.cc.OnAck(acked, c.lastRTTSample)
		}
		if c.recovering {
			if c.sndUna >= c.cold.recoverPt {
				c.recovering = false
			} else {
				// Partial ack: repair remaining holes (SACK-guided,
				// falling back to the first unacked segment).
				c.sackRetransmit()
				if len(seg.Sacks) == 0 {
					c.retransmitFirst()
				}
			}
		}
		if c.sndUna == c.sndNxt {
			c.disarmRTO()
			c.rto = max(c.srtt+4*c.rttvar, c.minRTO())
			if c.finSent {
				c.teardown(nil)
				return
			}
		} else {
			c.armRTO()
		}
		c.trySend()
		return
	}
	// Duplicate ACK.
	if c.sndNxt > c.sndUna && seg.Ack == c.sndUna {
		k := c.lossState()
		k.dupAcks++
		if k.dupAcks == 3 && !c.recovering {
			c.recovering = true
			k.recoverPt = c.sndNxt
			c.cc.OnLoss()
			c.retransmitFirst()
		}
		if c.recovering {
			c.sackRetransmit()
		}
	}
}

func (c *Conn) processData(seg *Segment) {
	end := seg.Seq + uint64(seg.Len)
	if seg.Kind == SegFIN {
		c.peerFin = true
		c.peerFinSeq = seg.Seq
	}
	for _, b := range seg.Bounds {
		c.addRecvBound(b)
	}
	if end > c.rcvNxt {
		if seg.Seq <= c.rcvNxt {
			c.rcvNxt = end
			c.mergeOOO()
		} else {
			c.addOOO(seg.Seq, end)
		}
	}
	c.ackNow(seg.TSVal)
	c.deliverReady()
}

func (c *Conn) ackNow(tsval time.Duration) {
	s := c.seg(SegACK)
	s.Ack = c.rcvNxt
	s.TSEcr = tsval
	if k := c.cold; k != nil {
		for i := 0; i < len(k.ooo) && i < maxSackBlocks; i++ {
			s.Sacks = append(s.Sacks, SackBlock{Start: k.ooo[i].seq, End: k.ooo[i].end})
		}
	}
	c.emit(s, 0)
}

func (c *Conn) addRecvBound(b Bound) {
	// A retransmitted segment can carry a boundary that was already
	// delivered and popped; re-adding it would deliver the message
	// twice. lastBound is the delivered watermark.
	if b.End <= c.lastBound {
		return
	}
	// Insert keeping order, ignoring duplicates (retransmits).
	i := sort.Search(len(c.recvBounds), func(i int) bool { return c.recvBounds[i].End >= b.End })
	if i < len(c.recvBounds) && c.recvBounds[i].End == b.End {
		return
	}
	c.recvBounds = append(c.recvBounds, Bound{})
	copy(c.recvBounds[i+1:], c.recvBounds[i:])
	c.recvBounds[i] = b
}

// addOOO inserts the range keeping c.ooo sorted and coalesced, so the
// list stays small and SACK blocks are maximal.
func (c *Conn) addOOO(seq, end uint64) {
	k := c.lossState()
	i := sort.Search(len(k.ooo), func(i int) bool { return k.ooo[i].seq > seq })
	k.ooo = append(k.ooo, oooSeg{})
	copy(k.ooo[i+1:], k.ooo[i:])
	k.ooo[i] = oooSeg{seq: seq, end: end}
	// Merge overlapping/adjacent neighbours.
	merged := k.ooo[:1]
	for _, o := range k.ooo[1:] {
		last := &merged[len(merged)-1]
		if o.seq <= last.end {
			if o.end > last.end {
				last.end = o.end
			}
		} else {
			merged = append(merged, o)
		}
	}
	k.ooo = merged
}

func (c *Conn) mergeOOO() {
	k := c.cold
	if k == nil {
		return
	}
	for {
		advanced := false
		keep := k.ooo[:0]
		for _, o := range k.ooo {
			switch {
			case o.end <= c.rcvNxt:
				// fully consumed
			case o.seq <= c.rcvNxt:
				c.rcvNxt = o.end
				advanced = true
			default:
				keep = append(keep, o)
			}
		}
		k.ooo = keep
		if !advanced {
			return
		}
	}
}

func (c *Conn) deliverReady() {
	for len(c.recvBounds) > 0 && c.recvBounds[0].End <= c.rcvNxt {
		b := c.recvBounds[0]
		c.recvBounds = slices.Delete(c.recvBounds, 0, 1)
		size := int(b.End - c.lastBound)
		c.lastBound = b.End
		if c.onMessage != nil {
			c.onMessage(b.Meta, size)
		}
		if c.state == stateClosed {
			return
		}
	}
	if c.peerFin && c.rcvNxt >= c.peerFinSeq+1 && len(c.recvBounds) == 0 {
		// Peer finished and everything is delivered.
		if c.finSent && c.sndUna == c.sndNxt {
			c.teardown(nil)
		} else if !c.finQueued {
			// Passive close: report EOF-style close once our side is
			// also drained of unsent data.
			c.teardown(nil)
		}
	}
}
