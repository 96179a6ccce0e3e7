package transport

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// lossRun is one connection from a to b whose every packet passes a
// drop decision before its receiving host handles it, with the test's
// own record of what b delivered.
type lossRun struct {
	*pair
	c    *Conn // the dialled end
	srv  *Conn // the accepted end
	drop func(pkt *simnet.Packet, toB bool) bool
	got  []int // message ids in delivery order
}

func newLossRun(t *testing.T, cc string, minRTO time.Duration) *lossRun {
	t.Helper()
	r := &lossRun{pair: newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})}
	r.hb.Listen(80, func(c *Conn) {
		r.srv = c
		c.SetOnMessage(func(meta any, _ int) { r.got = append(r.got, meta.(int)) })
	})
	for _, h := range []*Host{r.ha, r.hb} {
		toB := h == r.hb
		h.Node().SetDeliver(func(pkt *simnet.Packet) {
			if r.drop == nil || !r.drop(pkt, toB) {
				h.deliver(pkt)
			}
		})
	}
	r.c = r.ha.Dial(r.hb.Node().Addr(), 80, Options{CC: cc, MinRTO: minRTO})
	return r
}

// checkDelivered fails unless messages 0..n-1 each arrived exactly
// once, in order.
func (r *lossRun) checkDelivered(t *testing.T, n int) {
	t.Helper()
	if len(r.got) != n {
		t.Fatalf("delivered %d messages, want %d", len(r.got), n)
	}
	for i, id := range r.got {
		if id != i {
			t.Fatalf("delivery %d is message %d", i, id)
		}
	}
}

// TestControllersRecoverFromOneLoss drops the first transmission of
// one segment in the middle of the initial window, for each controller:
// the segments behind it draw duplicate ACKs and fast retransmit
// repairs the hole, with no RTO, and every message arrives once.
// Retransmits is pinned: the loss path's state moved out of Conn
// without moving what it does.
func TestControllersRecoverFromOneLoss(t *testing.T) {
	for _, cc := range []string{"reno", "cubic", "ledbat", "lp"} {
		r := newLossRun(t, cc, 0)
		const victim = 3 * MSS
		dropped := false
		r.drop = func(pkt *simnet.Packet, toB bool) bool {
			seg := pkt.Payload.(*Segment)
			if toB && !dropped && seg.Kind == SegDATA && seg.Seq == victim {
				dropped = true
				return true
			}
			return false
		}
		const msgs = 8
		for i := 0; i < msgs; i++ {
			r.c.SendMessage(i, 3*MSS)
		}
		r.sched.RunUntil(10 * time.Second)
		if !dropped {
			t.Fatalf("%s: segment %d was never sent", cc, victim)
		}
		r.checkDelivered(t, msgs)
		if got := r.c.Timeouts(); got != 0 {
			t.Errorf("%s: %d timeouts repairing one mid-window loss, want fast retransmit alone", cc, got)
		}
		if got := r.c.Retransmits(); got != 1 {
			t.Errorf("%s: %d retransmits, want 1", cc, got)
		}
	}
}

// TestControllersRecoverFromBlackouts sends a message every 5 ms for
// two seconds across five blackouts of 250 ms each, in which every
// packet both ways is lost, for each controller. Each blackout outlasts
// the 20 ms RTO several times over, so the connection recovers through
// timeouts; together they pass maxConsecRTOs, which the connection
// survives only because progress between blackouts resets the count.
// Every message arrives once, and Retransmits and Timeouts are pinned.
func TestControllersRecoverFromBlackouts(t *testing.T) {
	want := map[string]struct{ rtx, timeouts uint64 }{
		"reno":   {208, 16},
		"cubic":  {197, 16},
		"ledbat": {100, 20},
		"lp":     {100, 20},
	}
	for _, cc := range []string{"reno", "cubic", "ledbat", "lp"} {
		r := newLossRun(t, cc, 20*time.Millisecond)
		dark := func(now time.Duration) bool {
			for _, start := range []time.Duration{200, 600, 1000, 1400, 1800} {
				if now >= start*time.Millisecond && now < (start+250)*time.Millisecond {
					return true
				}
			}
			return false
		}
		r.drop = func(*simnet.Packet, bool) bool { return dark(r.sched.Now()) }
		const msgs = 400
		for i := 0; i < msgs; i++ {
			r.sched.At(time.Duration(i)*5*time.Millisecond, func() { r.c.SendMessage(i, 2000) })
		}
		r.sched.RunUntil(time.Minute)
		r.checkDelivered(t, msgs)
		rtx, timeouts := r.c.Retransmits(), r.c.Timeouts()
		if timeouts <= maxConsecRTOs {
			t.Errorf("%s: %d timeouts, want more than maxConsecRTOs (%d) across the blackouts", cc, timeouts, maxConsecRTOs)
		}
		if w := want[cc]; rtx != w.rtx || timeouts != w.timeouts {
			t.Errorf("%s: %d retransmits and %d timeouts, want %d and %d", cc, rtx, timeouts, w.rtx, w.timeouts)
		}
	}
}

// TestLosslessExchangeHasNoColdState runs request/response ping-pongs
// on an established connection over a lossless path: neither end
// allocates its cold state, and an exchange allocates nothing.
func TestLosslessExchangeHasNoColdState(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 20 * time.Microsecond})
	var srv *Conn
	p.hb.Listen(80, func(c *Conn) {
		srv = c
		c.SetOnMessage(func(any, int) { c.SendMessage(nil, 2<<10) })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	replies := 0
	c.SetOnMessage(func(any, int) { replies++ })
	exchange := func() {
		c.SendMessage(nil, 300)
		p.sched.Run()
	}
	exchange()
	n := testing.AllocsPerRun(200, exchange)
	if replies != 202 { // AllocsPerRun runs exchange once more to warm up
		t.Fatalf("%d of 202 requests answered", replies)
	}
	if n != 0 {
		t.Errorf("a lossless exchange allocates %v times, want 0", n)
	}
	if c.cold != nil || srv.cold != nil {
		t.Errorf("a lossless exchange allocated cold state: client %v, server %v", c.cold, srv.cold)
	}
}

// TestFirstLossAllocatesColdStateOnce: a connection that has seen no
// loss holds no cold state; the first mid-window loss allocates it at
// both ends (dup ACKs at the sender, an out-of-order range at the
// receiver), and a second loss and an RTO reuse it, with the counters
// carrying on from the first loss.
func TestFirstLossAllocatesColdStateOnce(t *testing.T) {
	r := newLossRun(t, "reno", 0)
	const none = ^uint64(0)
	victim, dark := none, false
	r.drop = func(pkt *simnet.Packet, toB bool) bool {
		seg := pkt.Payload.(*Segment)
		if toB && seg.Kind == SegDATA && seg.Seq == victim {
			victim = none // its first transmission only
			return true
		}
		return dark
	}
	sent := 0
	batch := func(lose bool) {
		if lose {
			victim = r.c.sendEnd + 3*MSS
		}
		for i := 0; i < 8; i++ {
			r.c.SendMessage(sent, 3*MSS)
			sent++
		}
		r.sched.RunFor(time.Second)
	}
	batch(false)
	if r.srv == nil || r.c.cold != nil || r.srv.cold != nil {
		t.Fatal("cold state allocated before any loss")
	}

	batch(true)
	r.checkDelivered(t, sent)
	sender, receiver := r.c.cold, r.srv.cold
	if sender == nil || receiver == nil {
		t.Fatalf("after a loss: client cold %v, server cold %v; want both allocated", sender, receiver)
	}
	if r.c.Retransmits() != 1 {
		t.Fatalf("first loss: %d retransmits, want 1", r.c.Retransmits())
	}

	batch(true)
	r.checkDelivered(t, sent)
	if r.c.Retransmits() != 2 {
		t.Fatalf("second loss: %d retransmits, want 2", r.c.Retransmits())
	}
	r.c.SendMessage(sent, 3*MSS)
	sent++
	dark = true
	r.sched.RunFor(2 * time.Second)
	dark = false
	r.sched.RunFor(5 * time.Second)
	r.checkDelivered(t, sent)
	if r.c.Timeouts() == 0 {
		t.Fatal("a 2 s blackout drew no RTO")
	}
	if r.c.cold != sender || r.srv.cold != receiver {
		t.Fatal("a later loss replaced the cold state")
	}
}

// TestHandshakeDisarmsSYNRetry: the SYN retry and the RTO share one
// timer, so the SYNACK must cancel the retry. An established
// connection with nothing to send leaves no event pending.
func TestHandshakeDisarmsSYNRetry(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	p.hb.Listen(80, func(*Conn) {})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	p.sched.RunFor(100 * time.Millisecond)
	if !c.Established() {
		t.Fatal("handshake did not complete")
	}
	if n := p.sched.Pending(); n != 0 {
		t.Fatalf("%d events pending on an idle established connection, want 0", n)
	}
}

// TestHandshakeAtTimeZeroSamplesRTT dials at simulated time 0, so the
// SYN carries TSVal 0: the SYNACK still echoes it, and the handshake's
// sample sets SRTT and takes the RTO from its 1 s initial value down to
// the dialled floor.
func TestHandshakeAtTimeZeroSamplesRTT(t *testing.T) {
	r := newLossRun(t, "reno", 20*time.Millisecond)
	r.sched.RunFor(10 * time.Millisecond)
	if !r.c.Established() {
		t.Fatal("handshake did not complete")
	}
	if r.c.SRTT() <= 0 || r.c.currentRTO() != 20*time.Millisecond {
		t.Fatalf("after a handshake dialled at t = 0: SRTT %v, RTO %v; want SRTT > 0 and the 20 ms MinRTO", r.c.SRTT(), r.c.currentRTO())
	}
}

// TestBidirectionalLossKeepsOneColdState loses one mid-window segment
// each way while both ends send, so each end's out-of-order list is
// waiting on a hole when its duplicate ACKs arrive: one cold state per
// end serves both, and each side repairs its one hole with one
// retransmission.
func TestBidirectionalLossKeepsOneColdState(t *testing.T) {
	r := newLossRun(t, "reno", 0)
	r.sched.RunFor(10 * time.Millisecond)
	const victim = 3 * MSS
	lost := map[bool]bool{}
	r.drop = func(pkt *simnet.Packet, toB bool) bool {
		seg := pkt.Payload.(*Segment)
		if seg.Kind == SegDATA && seg.Seq == victim && !lost[toB] {
			lost[toB] = true
			return true
		}
		return false
	}
	var coldA, coldB []*connCold
	note := func() {
		if k := r.c.cold; k != nil && (len(coldA) == 0 || coldA[len(coldA)-1] != k) {
			coldA = append(coldA, k)
		}
		if k := r.srv.cold; k != nil && (len(coldB) == 0 || coldB[len(coldB)-1] != k) {
			coldB = append(coldB, k)
		}
	}
	var toA []int
	r.c.SetOnMessage(func(meta any, _ int) { toA = append(toA, meta.(int)) })
	const msgs = 8
	for i := 0; i < msgs; i++ {
		r.c.SendMessage(i, 3*MSS)
		r.srv.SendMessage(i, 3*MSS)
	}
	for i := 0; i < 1000; i++ {
		r.sched.RunFor(100 * time.Microsecond)
		note()
	}
	r.checkDelivered(t, msgs)
	if len(toA) != msgs {
		t.Fatalf("a got %d of %d messages", len(toA), msgs)
	}
	if !lost[true] || !lost[false] {
		t.Fatalf("losses each way: %v", lost)
	}
	if len(coldA) != 1 || len(coldB) != 1 {
		t.Fatalf("cold states allocated: %d at a, %d at b; want one each", len(coldA), len(coldB))
	}
	if r.c.Retransmits() != 1 || r.srv.Retransmits() != 1 {
		t.Fatalf("retransmits: %d from a, %d from b; want 1 each", r.c.Retransmits(), r.srv.Retransmits())
	}
}
