package tc

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// rig is a two-node topology with a qdisc under test installed on the
// sender's NIC.
type rig struct {
	sched *simnet.Scheduler
	net   *simnet.Network
	a, b  *simnet.Node
	link  *simnet.Link
}

func newRig(t *testing.T, rate int64) *rig {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.Connect(a, b, simnet.LinkConfig{Rate: rate})
	return &rig{sched: s, net: n, a: a, b: b, link: l}
}

func (r *rig) install(q simnet.Qdisc) { r.a.NICs()[0].SetQdisc(q) }

func (r *rig) packet(size int, mark simnet.Mark, srcPort uint16) *simnet.Packet {
	return &simnet.Packet{
		ID:   r.net.NextPacketID(),
		Flow: simnet.FlowKey{Src: r.a.Addr(), Dst: r.b.Addr(), SrcPort: srcPort, DstPort: 80, Proto: simnet.ProtoTCP},
		Size: size,
		Mark: mark,
	}
}

// nearStrict returns the paper's discipline for a link of rate on the
// given clock, at the 95 % share every program installs.
func nearStrict(rate int64, clock Clock) *NearStrict {
	return NewNearStrict(NearStrictConfig{LinkRate: rate, HighShare: 0.95}, clock)
}

// TestClassifierFirstMatchWins keeps a historical name: tc no longer
// has a classifier or first-match filters, and this test checks
// NearStrict's one mark threshold. Every mark from MarkDefault to past
// MarkHigh lands in the high FIFO when it is MarkHigh or above and in
// the low FIFO otherwise.
func TestClassifierFirstMatchWins(t *testing.T) {
	for mark := simnet.MarkDefault; mark <= simnet.MarkHigh+1; mark++ {
		q := nearStrict(simnet.Gbps, func() time.Duration { return 0 })
		q.Enqueue(&simnet.Packet{Size: 100, Mark: mark})
		if high := mark >= simnet.MarkHigh; (q.high.Len() == 1) != high || q.Len() != 1 {
			t.Errorf("mark %d: high FIFO holds %d, low FIFO %d", mark, q.high.Len(), q.low.Len())
		}
	}
}

// TestMatchHelpers keeps a historical name: tc no longer has match
// helpers, and this test checks that Sent counts each class: a MarkLow
// packet leaves as class 1 and a MarkHigh packet as class 0.
func TestMatchHelpers(t *testing.T) {
	q := nearStrict(simnet.Gbps, func() time.Duration { return 0 })
	q.Enqueue(&simnet.Packet{Size: 100, Mark: simnet.MarkLow})
	q.Enqueue(&simnet.Packet{Size: 100, Mark: simnet.MarkHigh})
	if p := q.Dequeue(); p == nil || p.Mark != simnet.MarkHigh || q.Sent(0) != 1 || q.Sent(1) != 0 {
		t.Fatalf("first dequeue %v: sent high=%d low=%d", p, q.Sent(0), q.Sent(1))
	}
	if p := q.Dequeue(); p == nil || p.Mark != simnet.MarkLow || q.Sent(0) != 1 || q.Sent(1) != 1 {
		t.Fatalf("second dequeue %v: sent high=%d low=%d", p, q.Sent(0), q.Sent(1))
	}
}

// TestPrioStrictOrdering keeps its name from the PRIO qdisc NearStrict
// replaced: while the bucket covers them, high packets leave before
// every queued low one.
func TestPrioStrictOrdering(t *testing.T) {
	r := newRig(t, 8*simnet.Mbps) // 1000B = 1ms
	q := nearStrict(8*simnet.Mbps, r.sched.Now)
	r.install(q)

	var order []simnet.Mark
	r.b.SetDeliver(func(p *simnet.Packet) { order = append(order, p.Mark) })

	// Interleave low/high injections; first packet grabs the line, the
	// rest should come out high-before-low.
	r.a.NICs()[0].Send(r.packet(1000, simnet.MarkLow, 1))
	for i := 0; i < 3; i++ {
		r.a.NICs()[0].Send(r.packet(1000, simnet.MarkLow, 1))
		r.a.NICs()[0].Send(r.packet(1000, simnet.MarkHigh, 2))
	}
	r.sched.Run()

	if len(order) != 7 {
		t.Fatalf("delivered %d, want 7", len(order))
	}
	// After the in-flight first packet: 3 highs, then 3 lows.
	want := []simnet.Mark{simnet.MarkLow, simnet.MarkHigh, simnet.MarkHigh, simnet.MarkHigh,
		simnet.MarkLow, simnet.MarkLow, simnet.MarkLow}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
	if q.Sent(0) != 3 || q.Sent(1) != 4 {
		t.Fatalf("class sent counts high=%d low=%d", q.Sent(0), q.Sent(1))
	}
}

// TestTBFShapesToRate: the high class alone is shaped to its share of
// the link, after the bucket's burst.
func TestTBFShapesToRate(t *testing.T) {
	r := newRig(t, 80*simnet.Mbps)
	// Shape to 10 % of 80 Mbps: after the 20-MTU (30 KB) burst, the other
	// 70 x 1000B = 560kb take 70ms.
	r.install(NewNearStrict(NearStrictConfig{LinkRate: 80 * simnet.Mbps, HighShare: 0.1}, r.sched.Now))

	var last time.Duration
	n := 0
	r.b.SetDeliver(func(p *simnet.Packet) { last = r.sched.Now(); n++ })
	for i := 0; i < 100; i++ {
		r.a.NICs()[0].Send(r.packet(1000, simnet.MarkHigh, 1))
	}
	r.sched.Run()
	if n != 100 {
		t.Fatalf("delivered %d, want 100", n)
	}
	if last < 67*time.Millisecond || last > 73*time.Millisecond {
		t.Fatalf("last delivery at %v, want ~70ms", last)
	}
}

// TestTBFWakesIdleNIC: once the high class has spent its burst and
// only throttled high packets remain, the NIC goes idle and the Waker
// path still drains them.
func TestTBFWakesIdleNIC(t *testing.T) {
	r := newRig(t, 80*simnet.Mbps)
	r.install(NewNearStrict(NearStrictConfig{LinkRate: 80 * simnet.Mbps, HighShare: 0.1}, r.sched.Now))
	n := 0
	r.b.SetDeliver(func(p *simnet.Packet) { n++ })
	for i := 0; i < 40; i++ {
		r.a.NICs()[0].Send(r.packet(1400, simnet.MarkHigh, 1))
	}
	r.sched.Run()
	if n != 40 {
		t.Fatalf("delivered %d, want 40 (NIC never woke)", n)
	}
}

func TestNearStrictSharesBandwidth(t *testing.T) {
	r := newRig(t, 10*simnet.Mbps)
	q := nearStrict(10*simnet.Mbps, r.sched.Now)
	r.install(q)

	var hiBytes, loBytes int
	r.b.SetDeliver(func(p *simnet.Packet) {
		if p.Mark == simnet.MarkHigh {
			hiBytes += p.Size
		} else {
			loBytes += p.Size
		}
	})
	// Both classes saturating: high should get ~95%, low ~5%.
	for i := 0; i < 1500; i++ {
		r.a.NICs()[0].Send(r.packet(1000, simnet.MarkHigh, 1))
	}
	for i := 0; i < 200; i++ {
		r.a.NICs()[0].Send(r.packet(1000, simnet.MarkLow, 2))
	}
	r.sched.RunUntil(time.Second)
	total := hiBytes + loBytes
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	hiShare := float64(hiBytes) / float64(total)
	if hiShare < 0.90 || hiShare > 0.98 {
		t.Fatalf("high share = %.3f, want ~0.95", hiShare)
	}
	if loBytes == 0 {
		t.Fatal("low class fully starved; NearStrict should leave ~5%")
	}
}

func TestNearStrictLowUsesFullLinkWhenHighIdle(t *testing.T) {
	r := newRig(t, 10*simnet.Mbps)
	q := nearStrict(10*simnet.Mbps, r.sched.Now)
	r.install(q)
	var loBytes int
	r.b.SetDeliver(func(p *simnet.Packet) { loBytes += p.Size })
	start := r.sched.Now()
	for i := 0; i < 500; i++ {
		r.a.NICs()[0].Send(r.packet(1000, simnet.MarkLow, 2))
	}
	r.sched.Run()
	rate := float64(loBytes*8) / (r.sched.Now() - start).Seconds()
	if rate < 9.5e6 {
		t.Fatalf("low-only rate = %.3g, want full line rate", rate)
	}
}

func TestNearStrictConfigValidation(t *testing.T) {
	for _, bad := range []NearStrictConfig{
		{LinkRate: 0, HighShare: 0.5},
		{LinkRate: simnet.Mbps, HighShare: 0},
		{LinkRate: simnet.Mbps, HighShare: 1.5},
		{LinkRate: 1, HighShare: 0.5}, // a high rate that rounds to 0 bits/s
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", bad)
				}
			}()
			s := simnet.NewScheduler()
			NewNearStrict(bad, s.Now)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock accepted")
		}
	}()
	nearStrict(simnet.Mbps, nil)
}
