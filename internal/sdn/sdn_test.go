package sdn

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// teRig: src -> a -(primary 10Mbps)-> dst, plus src -> a -(alt)-> b -> dst.
type teRig struct {
	sched              *simnet.Scheduler
	net                *simnet.Network
	src, a, b, dst     *simnet.Node
	primary, alternate *simnet.Link
}

func newTERig(t *testing.T) *teRig {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	src := n.AddNode("src")
	a := n.AddNode("a")
	b := n.AddNode("b")
	dst := n.AddNode("dst")
	n.Connect(src, a, simnet.LinkConfig{Rate: 100 * simnet.Mbps})
	primary := n.Connect(a, dst, simnet.LinkConfig{Rate: 10 * simnet.Mbps})
	alt1 := n.Connect(a, b, simnet.LinkConfig{Rate: 10 * simnet.Mbps})
	n.Connect(b, dst, simnet.LinkConfig{Rate: 10 * simnet.Mbps})
	_ = alt1
	return &teRig{sched: s, net: n, src: src, a: a, b: b, dst: dst,
		primary: primary, alternate: alt1}
}

func (r *teRig) flow(srcPort uint16) simnet.FlowKey {
	return simnet.FlowKey{Src: r.src.Addr(), Dst: r.dst.Addr(), SrcPort: srcPort, DstPort: 80, Proto: simnet.ProtoTCP}
}

// blast injects traffic on a flow at roughly rate bits/s until end.
func (r *teRig) blast(flow simnet.FlowKey, mark simnet.Mark, rate int64, end time.Duration) {
	interval := time.Duration(float64(1500*8) / float64(rate) * float64(time.Second))
	var send func()
	send = func() {
		if r.sched.Now() >= end {
			return
		}
		r.src.Inject(&simnet.Packet{
			ID: r.net.NextPacketID(), Flow: flow, Size: 1500, Mark: mark,
		})
		r.sched.After(interval, send)
	}
	send()
}

func TestUtilizationTracking(t *testing.T) {
	r := newTERig(t)
	c := New(r.net, 50*time.Millisecond)
	c.Start()
	r.dst.SetDeliver(func(*simnet.Packet) {})
	// Fill the 10 Mbps primary at ~8 Mbps.
	r.blast(r.flow(1000), simnet.MarkDefault, 8*simnet.Mbps, time.Second)
	r.sched.RunUntil(time.Second)
	u := c.Utilization(r.primary.A())
	if u < 0.6 || u > 1.0 {
		t.Fatalf("utilization = %.2f, want ~0.8", u)
	}
	// Idle link reads near zero.
	if iu := c.Utilization(r.alternate.A()); iu > 0.05 {
		t.Fatalf("idle link utilization = %.2f", iu)
	}
}

func TestTESteersLowPriorityWhenHot(t *testing.T) {
	r := newTERig(t)
	c := New(r.net, 50*time.Millisecond)
	c.AddTERoute(TERoute{
		Node:      r.a,
		Primary:   r.primary.A(),
		Alternate: r.alternate.A(),
		Threshold: 0.6,
	})
	c.Start()
	r.dst.SetDeliver(func(*simnet.Packet) {})

	hi := r.flow(1000)
	lo := r.flow(2000)
	c.RegisterFlow(hi, simnet.MarkHigh)
	c.RegisterFlow(lo, simnet.MarkLow)

	// Saturate the primary with both flows.
	r.blast(hi, simnet.MarkHigh, 6*simnet.Mbps, 2*time.Second)
	r.blast(lo, simnet.MarkLow, 6*simnet.Mbps, 2*time.Second)
	r.sched.RunUntil(2 * time.Second)

	if c.Moves() == 0 {
		t.Fatal("controller never steered despite saturation")
	}
	// The alternate path must have carried traffic (the low flow).
	if r.alternate.A().TxPackets() == 0 {
		t.Fatal("alternate path unused")
	}
	// High-priority flow must not be steered: check a's flow table by
	// confirming the b node only forwarded low-marked packets.
	lowOnB, highOnB := 0, 0
	r.b.SetDeliver(func(*simnet.Packet) {})
	// (counted below via a fresh run)
	r.net.OnDrop(func(*simnet.Packet, *simnet.NIC) {})
	_ = lowOnB
	_ = highOnB
}

func TestTEWithdrawsWhenCool(t *testing.T) {
	r := newTERig(t)
	c := New(r.net, 50*time.Millisecond)
	c.AddTERoute(TERoute{Node: r.a, Primary: r.primary.A(), Alternate: r.alternate.A(), Threshold: 0.6})
	c.Start()
	r.dst.SetDeliver(func(*simnet.Packet) {})

	lo := r.flow(2000)
	c.RegisterFlow(lo, simnet.MarkLow)
	r.blast(r.flow(1000), simnet.MarkHigh, 9*simnet.Mbps, time.Second)
	r.blast(lo, simnet.MarkLow, 2*simnet.Mbps, time.Second)
	r.sched.RunUntil(time.Second)
	movesAfterHot := c.Moves()
	if movesAfterHot == 0 {
		t.Fatal("no steering during hot phase")
	}
	// Traffic stops; utilization decays; steering withdrawn.
	r.sched.RunUntil(3 * time.Second)
	if c.Moves() <= movesAfterHot {
		t.Fatal("steering never withdrawn after cool-down")
	}
}

func TestTERouteValidation(t *testing.T) {
	r := newTERig(t)
	c := New(r.net, 0)
	for _, bad := range []TERoute{
		{},
		{Node: r.a, Primary: r.primary.A(), Alternate: r.alternate.A(), Threshold: 0},
		{Node: r.a, Primary: r.primary.A(), Alternate: r.alternate.A(), Threshold: 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad route %+v accepted", bad)
				}
			}()
			c.AddTERoute(bad)
		}()
	}
}

func TestHighPriorityFlowNeverSteered(t *testing.T) {
	r := newTERig(t)
	c := New(r.net, 50*time.Millisecond)
	c.AddTERoute(TERoute{Node: r.a, Primary: r.primary.A(), Alternate: r.alternate.A(), Threshold: 0.3})
	c.Start()

	var viaB int
	r.dst.SetDeliver(func(*simnet.Packet) {})
	origForward := r.b // count packets traversing b
	_ = origForward

	hi := r.flow(1000)
	c.RegisterFlow(hi, simnet.MarkHigh)
	r.blast(hi, simnet.MarkHigh, 9*simnet.Mbps, 2*time.Second)
	r.sched.RunUntil(2 * time.Second)
	viaB = int(r.alternate.A().TxPackets())
	if viaB != 0 {
		t.Fatalf("high-priority packets steered onto alternate: %d", viaB)
	}
	if c.Moves() != 0 {
		t.Fatalf("moves = %d for a high-only flow set", c.Moves())
	}
}
