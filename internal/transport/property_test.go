package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"meshlayer/internal/simnet"
)

// TestPropertyReliableDeliveryUnderLoss is the transport's core
// invariant: whatever the loss rate, jitter, message sizes, and
// congestion controller, every message arrives exactly once, in order,
// with its exact size.
func TestPropertyReliableDeliveryUnderLoss(t *testing.T) {
	f := func(seed int64, rawLoss uint8, ccPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lossProb := float64(rawLoss%30) / 100 // 0..0.29
		cc := []string{"reno", "cubic", "ledbat", "lp"}[int(ccPick)%4]

		s := simnet.NewScheduler()
		n := simnet.NewNetwork(s)
		a := n.AddNode("a")
		b := n.AddNode("b")
		n.Connect(a, b, simnet.LinkConfig{Rate: 50 * simnet.Mbps, Delay: time.Millisecond})
		a.NICs()[0].Impair(simnet.Impairment{LossProb: lossProb, JitterMax: 2 * time.Millisecond, Seed: seed})
		b.NICs()[0].Impair(simnet.Impairment{LossProb: lossProb / 2, Seed: seed + 1})

		ha, hb := NewHost(a), NewHost(b)
		type rcv struct {
			meta any
			size int
		}
		var got []rcv
		hb.Listen(80, func(c *Conn) {
			c.SetOnMessage(func(meta any, size int) { got = append(got, rcv{meta, size}) })
		})
		// Use a tight MinRTO so lossy runs converge quickly.
		conn := ha.Dial(b.Addr(), 80, Options{CC: cc, MinRTO: 20 * time.Millisecond})

		nMsgs := 5 + rng.Intn(20)
		sizes := make([]int, nMsgs)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(60000)
			conn.SendMessage(i, sizes[i])
		}
		s.RunUntil(5 * time.Minute)

		if len(got) != nMsgs {
			t.Logf("seed=%d loss=%.2f cc=%s: delivered %d/%d", seed, lossProb, cc, len(got), nMsgs)
			return false
		}
		for i, r := range got {
			if r.meta.(int) != i || r.size != sizes[i] {
				t.Logf("seed=%d: message %d got (%v,%d) want (%d,%d)", seed, i, r.meta, r.size, i, sizes[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBidirectionalEcho: random request/response sizes echo
// back intact over a lossy link.
func TestPropertyBidirectionalEcho(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := simnet.NewScheduler()
		n := simnet.NewNetwork(s)
		a := n.AddNode("a")
		b := n.AddNode("b")
		n.Connect(a, b, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: 500 * time.Microsecond})
		a.NICs()[0].Impair(simnet.Impairment{LossProb: 0.05, Seed: seed})
		b.NICs()[0].Impair(simnet.Impairment{LossProb: 0.05, Seed: seed + 9})

		ha, hb := NewHost(a), NewHost(b)
		hb.Listen(80, func(c *Conn) {
			c.SetOnMessage(func(meta any, size int) {
				c.SendMessage(meta, size) // echo
			})
		})
		conn := ha.Dial(b.Addr(), 80, Options{MinRTO: 20 * time.Millisecond})
		nMsgs := 3 + rng.Intn(8)
		sent := map[int]int{}
		var echoed []int
		conn.SetOnMessage(func(meta any, size int) {
			if sent[meta.(int)] != size {
				size = -1
			}
			echoed = append(echoed, size)
		})
		for i := 0; i < nMsgs; i++ {
			sz := 1 + rng.Intn(30000)
			sent[i] = sz
			conn.SendMessage(i, sz)
		}
		s.RunUntil(2 * time.Minute)
		if len(echoed) != nMsgs {
			return false
		}
		for _, sz := range echoed {
			if sz < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBytesConservation: acked bytes never exceed sent stream
// length and eventually equal it.
func TestPropertyBytesConservation(t *testing.T) {
	f := func(seed int64, nMsg uint8) bool {
		s := simnet.NewScheduler()
		n := simnet.NewNetwork(s)
		a := n.AddNode("a")
		b := n.AddNode("b")
		n.Connect(a, b, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
		a.NICs()[0].Impair(simnet.Impairment{LossProb: 0.1, Seed: seed})
		ha, hb := NewHost(a), NewHost(b)
		hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })
		conn := ha.Dial(b.Addr(), 80, Options{MinRTO: 20 * time.Millisecond})
		total := 0
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(nMsg)%10
		for i := 0; i < count; i++ {
			sz := 1 + rng.Intn(20000)
			total += sz
			conn.SendMessage(i, sz)
		}
		s.RunUntil(time.Minute)
		return conn.BytesAcked() == uint64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestHeavyLossEventuallyDelivers stresses RTO-driven recovery.
func TestHeavyLossEventuallyDelivers(t *testing.T) {
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: time.Millisecond})
	a.NICs()[0].Impair(simnet.Impairment{LossProb: 0.25, Seed: 5})
	ha, hb := NewHost(a), NewHost(b)
	done := false
	hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) { done = true }) })
	conn := ha.Dial(b.Addr(), 80, Options{MinRTO: 50 * time.Millisecond})
	conn.SendMessage("x", 500_000)
	s.RunUntil(10 * time.Minute)
	if !done {
		t.Fatalf("500KB never delivered at 25%% loss (rtx=%d timeouts=%d acked=%d)",
			conn.Retransmits(), conn.Timeouts(), conn.BytesAcked())
	}
	if conn.Retransmits() == 0 {
		t.Fatal("no retransmissions at 25% loss?")
	}
}

// countingCC counts the timeouts its connection reports.
type countingCC struct {
	Controller
	timeouts uint64
}

func (c *countingCC) OnTimeout() {
	c.timeouts++
	c.Controller.OnTimeout()
}

// TestPropertyCountersMatchReference drives one connection through a
// seeded sequence of sends, runs and impairment changes, under packet
// and flow fidelity, and after every step holds BytesAcked,
// Retransmits and Timeouts to counts the test keeps from outside the
// connection: the highest cumulative ACK delivered to the sender, the
// DATA and FIN segments its NIC puts on the wire below the highest end
// already sent, and the RTOs, as the timeouts its controller is told of
// plus the delivery notices an RTO re-announces (the only segments
// stamped TSVal 0). The NIC count is complete only once its queue is
// empty, so Retransmits is compared at those steps. Under flow fidelity
// the forward path is impaired only now and then, so bulk messages ride
// the fluid path and are demoted from it, and every ACK is lost for a
// while now and then, so delivered ranges are re-announced.
func TestPropertyCountersMatchReference(t *testing.T) {
	var compared, rtxSeen, timeoutsSeen, fluidSeen, resendsSeen uint64
	f := func(seed int64, fluid bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond, QueueBytes: 64 << 20})
		fid := simnet.FidelityPacket
		if fluid {
			fid = simnet.FidelityFlow
		}
		p.net.SetFidelity(fid)
		a2b, b2a := p.ha.Node().NICs()[0], p.hb.Node().NICs()[0]
		p.hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })
		c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{MinRTO: 20 * time.Millisecond})
		cc := &countingCC{Controller: c.cc}
		c.cc = cc
		var closeErr error
		c.SetOnClose(func(err error) { closeErr = err })

		var ackRef, rtxRef, noticeResends, highest uint64
		holdAcks := false
		p.ha.Node().SetDeliver(func(pkt *simnet.Packet) {
			seg := pkt.Payload.(*Segment)
			if seg.Kind == SegACK {
				if holdAcks {
					return // lost on the way back
				}
				ackRef = max(ackRef, seg.Ack)
			}
			p.ha.deliver(pkt)
		})
		p.hb.Node().SetDeliver(func(pkt *simnet.Packet) {
			if seg := pkt.Payload.(*Segment); seg.Kind == SegDATA && seg.TSVal == 0 {
				noticeResends++
			}
			p.hb.deliver(pkt)
		})
		a2b.SetTap(func(pkt *simnet.Packet, _ time.Duration) {
			seg := pkt.Payload.(*Segment)
			if seg.Kind != SegDATA && seg.Kind != SegFIN {
				return
			}
			if seg.Seq < highest {
				rtxRef++
			}

			highest = max(highest, seg.Seq+uint64(max(seg.Len, 1)))
		})

		var total uint64
		check := func(step int) bool {
			timeoutRef := cc.timeouts + noticeResends
			if closeErr == ErrRetransmitLimit {
				timeoutRef++ // the fatal RTO tears down before telling the controller
			}
			acked := c.BytesAcked()
			ackOK := acked == ackRef
			if c.fluidActive {
				ackOK = acked >= ackRef && acked <= c.sendEnd
			}
			rtxOK := c.Retransmits() == rtxRef
			if a2b.QueueDepth() == 0 {
				compared++
			} else {
				rtxOK = c.Retransmits() >= rtxRef
			}
			if !rtxOK || c.Timeouts() != timeoutRef || !ackOK {
				t.Logf("seed %d fluid %v step %d: BytesAcked %d, Retransmits %d, Timeouts %d; reference %d, %d, %d",
					seed, fluid, step, acked, c.Retransmits(), c.Timeouts(), ackRef, rtxRef, timeoutRef)
				return false
			}
			return true
		}
		for step := 0; step < 60; step++ {
			switch k := rng.Intn(10); {
			case k < 4:
				size := 1 + rng.Intn(3000)
				if rng.Intn(2) == 0 {
					size = FluidCutover + rng.Intn(200_000)
				}
				total += uint64(size)
				c.SendMessage(step, size)
			case k < 8:
				p.sched.RunFor(time.Duration(rng.Intn(100)) * time.Millisecond)
			case k == 8 && fluid:
				// Forward loss now and then: it demotes an active flow and
				// keeps later messages on packets until it clears.
				a2b.Impair(simnet.Impairment{LossProb: float64(rng.Intn(4)/3) * 0.05, Seed: seed + int64(step)})
			case k == 9 && fluid:
				// Every ACK lost for a while: a delivered fluid range is
				// re-announced by the RTO.
				holdAcks = true
				p.sched.RunFor(time.Duration(rng.Intn(1500)) * time.Millisecond)
				holdAcks = false
			default:
				b2a.Impair(simnet.Impairment{LossProb: float64(rng.Intn(25)) / 100, Seed: seed - int64(step)})
			}
			if !check(step) {
				return false
			}
		}
		a2b.Impair(simnet.Impairment{})
		b2a.Impair(simnet.Impairment{})
		p.sched.RunFor(5 * time.Minute)
		if a2b.Drops() != 0 {
			t.Logf("seed %d: %d queue drops hide segments from the tap", seed, a2b.Drops())
			return false
		}
		rtxSeen += c.Retransmits()
		timeoutsSeen += c.Timeouts()
		fluidSeen += c.FluidCompleted()
		resendsSeen += noticeResends
		return check(-1) && (closeErr != nil || c.BytesAcked() == total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if compared < 300 || rtxSeen == 0 || timeoutsSeen == 0 || fluidSeen == 0 || resendsSeen == 0 {
		t.Fatalf("%d steps compared Retransmits, the runs saw %d retransmits, %d timeouts, %d fluid messages and %d re-announced ones: the walk did not exercise what it is for",
			compared, rtxSeen, timeoutsSeen, fluidSeen, resendsSeen)
	}
}
