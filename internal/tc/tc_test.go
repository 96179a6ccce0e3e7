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

// TestClassifierFirstMatchWins keeps a historical name: tc no longer
// has a classifier or first-match filters, and this test checks Prio's
// mark threshold. It sends every mark to a prio of 1, 2 and 3 bands at
// both thresholds in use. Prio classifies on one threshold: a mark at
// or above it matches and lands in band 0, any other falls through to
// the last band.
func TestClassifierFirstMatchWins(t *testing.T) {
	for _, threshold := range []simnet.Mark{simnet.MarkLow, simnet.MarkHigh} {
		for bands := 1; bands <= 3; bands++ {
			for mark := simnet.MarkDefault; mark <= simnet.MarkHigh+1; mark++ {
				fifos := make([]simnet.Qdisc, bands)
				for i := range fifos {
					fifos[i] = simnet.NewFIFO(0)
				}
				NewPrio(threshold, fifos...).Enqueue(&simnet.Packet{Size: 100, Mark: mark})
				want := bands - 1
				if mark >= threshold {
					want = 0
				}
				if fifos[want].Len() != 1 {
					t.Errorf("threshold %d, %d bands: mark %d missed band %d", threshold, bands, mark, want)
				}
			}
		}
	}
}

// TestMatchHelpers keeps a historical name: tc no longer has match
// helpers, and this test checks Prio's mark threshold alone. A MarkLow
// packet matches threshold MarkLow and not threshold MarkHigh.
func TestMatchHelpers(t *testing.T) {
	matches := func(threshold simnet.Mark) bool {
		high, low := simnet.NewFIFO(0), simnet.NewFIFO(0)
		NewPrio(threshold, high, low).Enqueue(&simnet.Packet{Size: 100, Mark: simnet.MarkLow})
		return high.Len() == 1
	}
	if !matches(simnet.MarkLow) || matches(simnet.MarkHigh) {
		t.Fatal("threshold wrong")
	}
}

func TestPrioStrictOrdering(t *testing.T) {
	r := newRig(t, 8*simnet.Mbps) // 1000B = 1ms
	q := NewPrio(simnet.MarkHigh, simnet.NewFIFO(0), simnet.NewFIFO(0))
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
		t.Fatalf("band sent counts high=%d low=%d", q.Sent(0), q.Sent(1))
	}
}

func TestTBFShapesToRate(t *testing.T) {
	r := newRig(t, 80*simnet.Mbps)
	// Shape to 8 Mbps: 100 x 1000B = 800kb => 100ms.
	q := NewTBF(8*simnet.Mbps, simnet.MTU, nil, r.sched.Now)
	r.install(q)

	var last time.Duration
	n := 0
	r.b.SetDeliver(func(p *simnet.Packet) { last = r.sched.Now(); n++ })
	for i := 0; i < 100; i++ {
		r.a.NICs()[0].Send(r.packet(1000, 0, 1))
	}
	r.sched.Run()
	if n != 100 {
		t.Fatalf("delivered %d, want 100", n)
	}
	// Initial burst credit lets the first ~1.5KB out immediately; the
	// rest are paced at 1ms per 1000B.
	if last < 95*time.Millisecond || last > 105*time.Millisecond {
		t.Fatalf("last delivery at %v, want ~100ms", last)
	}
}

func TestTBFWakesIdleNIC(t *testing.T) {
	r := newRig(t, 80*simnet.Mbps)
	q := NewTBF(8*simnet.Mbps, simnet.MTU, nil, r.sched.Now)
	r.install(q)
	n := 0
	r.b.SetDeliver(func(p *simnet.Packet) { n++ })
	// Exhaust the burst, go idle, and confirm pending packets still
	// drain via the Waker path.
	for i := 0; i < 5; i++ {
		r.a.NICs()[0].Send(r.packet(1400, 0, 1))
	}
	r.sched.Run()
	if n != 5 {
		t.Fatalf("delivered %d, want 5 (NIC never woke)", n)
	}
}

func TestNearStrictSharesBandwidth(t *testing.T) {
	r := newRig(t, 10*simnet.Mbps)
	q := NewNearStrict(NearStrictConfig{
		LinkRate:  10 * simnet.Mbps,
		HighShare: 0.95,
	}, r.sched.Now)
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
	q := NewNearStrict(NearStrictConfig{LinkRate: 10 * simnet.Mbps, HighShare: 0.95}, r.sched.Now)
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
}
