package transport

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// fluidPair wires two hosts over one link with the given fidelity.
func fluidPair(t *testing.T, fid simnet.Fidelity, cfg simnet.LinkConfig) *pair {
	t.Helper()
	p := newPair(t, cfg)
	p.net.SetFidelity(fid)
	return p
}

func TestFluidDelivery(t *testing.T) {
	// A bulk message rides the fluid path and still delivers exactly
	// once, in order, with the right meta and size.
	for _, fid := range []simnet.Fidelity{simnet.FidelityFlow, simnet.FidelityHybrid} {
		p := fluidPair(t, fid, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
		var got []any
		var sizes []int
		p.hb.Listen(80, func(c *Conn) {
			c.SetOnMessage(func(meta any, size int) { got = append(got, meta); sizes = append(sizes, size) })
		})
		c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
		c.SendMessage("small", 100)       // below cutover: packet path
		c.SendMessage("bulk", 10_000_000) // fluid
		c.SendMessage("after", 200)       // packet again, behind the flow
		p.sched.Run()
		if len(got) != 3 || got[0] != "small" || got[1] != "bulk" || got[2] != "after" {
			t.Fatalf("%v: delivered %v, want [small bulk after]", fid, got)
		}
		if sizes[1] != 10_000_000 {
			t.Fatalf("%v: bulk size %d", fid, sizes[1])
		}
		if c.FluidCompleted() != 1 {
			t.Fatalf("%v: FluidCompleted = %d, want 1", fid, c.FluidCompleted())
		}
		if c.BytesAcked() != 100+10_000_000+200 {
			t.Fatalf("%v: BytesAcked = %d", fid, c.BytesAcked())
		}
	}
}

func TestFluidCompletionTimeMatchesRate(t *testing.T) {
	// 80 Mbps = 1e7 B/s. A 1e7-byte message should be delivered at
	// roughly 1s — rate-accurate, not serialization-step accurate.
	p := fluidPair(t, simnet.FidelityFlow, simnet.LinkConfig{Rate: 80 * simnet.Mbps, Delay: time.Millisecond})
	var deliveredAt time.Duration
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { deliveredAt = p.sched.Now() })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("bulk", 10_000_000)
	p.sched.Run()
	if deliveredAt < time.Second || deliveredAt > 1100*time.Millisecond {
		t.Fatalf("bulk delivered at %v, want ~1s (+handshake+prop)", deliveredAt)
	}
}

func TestFluidEventReduction(t *testing.T) {
	// The whole point: a 10MB transfer is ~7k data packets + ACKs in
	// packet mode, a handful of events in flow mode.
	steps := map[simnet.Fidelity]uint64{}
	for _, fid := range []simnet.Fidelity{simnet.FidelityPacket, simnet.FidelityFlow} {
		p := fluidPair(t, fid, simnet.LinkConfig{Rate: 1 * simnet.Gbps, Delay: time.Millisecond})
		done := false
		p.hb.Listen(80, func(c *Conn) {
			c.SetOnMessage(func(any, int) { done = true })
		})
		c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
		c.SendMessage("bulk", 10_000_000)
		p.sched.Run()
		if !done {
			t.Fatalf("%v: message not delivered", fid)
		}
		steps[fid] = p.sched.Steps()
	}
	if steps[simnet.FidelityFlow]*10 > steps[simnet.FidelityPacket] {
		t.Fatalf("flow mode took %d steps vs packet %d — want >=10x reduction",
			steps[simnet.FidelityFlow], steps[simnet.FidelityPacket])
	}
}

func TestFluidScavengerStaysOnPackets(t *testing.T) {
	// ledbat/lp connections must not use the fast path: their point is
	// to yield to foreground traffic, which fair sharing would erase.
	p := fluidPair(t, simnet.FidelityFlow, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	delivered := false
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { delivered = true })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{CC: "ledbat"})
	c.SendMessage("bulk", 1_000_000)
	p.sched.Run()
	if !delivered {
		t.Fatal("scavenger bulk not delivered")
	}
	if c.FluidCompleted() != 0 {
		t.Fatalf("scavenger used the fluid path (%d)", c.FluidCompleted())
	}
}

func TestFluidImpairedPathFallsBack(t *testing.T) {
	// A path that is impaired before the send starts is ineligible:
	// the message goes via packets (where loss is simulated) and still
	// arrives via retransmission.
	p := fluidPair(t, simnet.FidelityFlow, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	p.link.A().Impair(simnet.Impairment{LossProb: 0.05, Seed: 42})
	delivered := false
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { delivered = true })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("bulk", 500_000)
	p.sched.Run()
	if !delivered {
		t.Fatal("bulk not delivered over lossy path")
	}
	if c.FluidCompleted() != 0 {
		t.Fatal("fluid path used despite impairment")
	}
}

func TestFluidMidFlightDemotion(t *testing.T) {
	// Impairing the path mid-transfer demotes the flow; the remaining
	// range is re-sent as packets and the message still arrives once.
	p := fluidPair(t, simnet.FidelityFlow, simnet.LinkConfig{Rate: 8 * simnet.Mbps, Delay: time.Millisecond})
	deliveries := 0
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { deliveries++ })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("bulk", 1_000_000) // ~1s fluid at 1e6 B/s
	p.sched.RunFor(300 * time.Millisecond)
	if c.FluidCompleted() != 0 || deliveries != 0 {
		t.Fatal("flow finished before the fault was injected")
	}
	p.link.A().Impair(simnet.Impairment{LossProb: 0.01, Seed: 7})
	p.sched.Run()
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want exactly 1", deliveries)
	}
	if c.FluidDemotions() != 1 {
		t.Fatalf("FluidDemotions = %d, want 1", c.FluidDemotions())
	}
	if c.FluidCompleted() != 0 {
		t.Fatal("demoted flow also counted as fluid-completed")
	}
}

func TestFluidCloseAfterBulk(t *testing.T) {
	// FIN sequencing: Close() queued behind a fluid message must only
	// fire after the flow completes, and both sides wind down cleanly.
	p := fluidPair(t, simnet.FidelityFlow, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	var closed bool
	p.hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SetOnClose(func(err error) {
		if err != nil {
			t.Fatalf("close error: %v", err)
		}
		closed = true
	})
	c.SendMessage("bulk", 2_000_000)
	c.Close()
	p.sched.Run()
	if !closed {
		t.Fatal("connection never closed")
	}
	if c.FluidCompleted() != 1 {
		t.Fatalf("FluidCompleted = %d, want 1", c.FluidCompleted())
	}
}

func TestFluidBackToBackBulk(t *testing.T) {
	// Multiple queued fluid messages run one after another and deliver
	// in order.
	p := fluidPair(t, simnet.FidelityHybrid, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	var got []any
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(meta any, _ int) { got = append(got, meta) })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	for i := 0; i < 5; i++ {
		c.SendMessage(i, 1_000_000)
	}
	p.sched.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if c.FluidCompleted() != 5 {
		t.Fatalf("FluidCompleted = %d, want 5", c.FluidCompleted())
	}
}

func TestFluidDeterminism(t *testing.T) {
	// Two identical hybrid runs produce identical delivery timelines.
	run := func() []time.Duration {
		p := fluidPair(t, simnet.FidelityHybrid, simnet.LinkConfig{Rate: 50 * simnet.Mbps, Delay: 2 * time.Millisecond})
		var times []time.Duration
		p.hb.Listen(80, func(c *Conn) {
			c.SetOnMessage(func(any, int) { times = append(times, p.sched.Now()) })
		})
		c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
		for i := 0; i < 8; i++ {
			size := 5_000
			if i%2 == 0 {
				size = 2_000_000
			}
			c.SendMessage(i, size)
		}
		p.sched.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 8 {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFluidDemotionBetweenUnackedAndQueued(t *testing.T) {
	// Three bulk messages with small packet-path ones between them, all
	// queued at once. The first rides the flow engine and is delivered, but
	// its ACK (and every later one) is held back; the second is demoted
	// mid-flight by an impairment, with the first still unacked and the
	// third still queued; the impairment clears and the third rides the
	// engine again. Every message arrives exactly once, in order, and the
	// acked byte count never runs ahead of what was handed to SendMessage.
	p := fluidPair(t, simnet.FidelityFlow, simnet.LinkConfig{Rate: 8 * simnet.Mbps, Delay: time.Millisecond})
	a2b := p.ha.Node().NICs()[0]
	sizes := []int{100, 300_000, 200, 400_000, 300, 300_000, 150}
	var got []int
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(meta any, size int) {
			i := meta.(int)
			if i != len(got) || size != sizes[i] {
				t.Fatalf("delivery %d is message %d with %d bytes, want message %d with %d", len(got), i, size, len(got), sizes[len(got)])
			}
			got = append(got, i)
		})
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{MinRTO: 50 * time.Millisecond})
	holdAcks := false
	p.ha.Node().SetDeliver(func(pkt *simnet.Packet) {
		if seg, ok := pkt.Payload.(*Segment); ok && holdAcks && seg.Kind == SegACK {
			return // lost on the way back
		}
		p.ha.deliver(pkt)
	})
	var total uint64
	for i, size := range sizes {
		total += uint64(size)
		c.SendMessage(i, size)
	}
	var tick func()
	tick = func() {
		if acked := c.BytesAcked(); acked > total {
			t.Fatalf("at %v BytesAcked = %d, above the %d bytes sent", p.sched.Now(), acked, total)
		}
		if !c.Closed() && p.sched.Now() < 10*time.Second {
			p.sched.After(5*time.Millisecond, tick)
		}
	}
	tick()

	p.sched.RunFor(200 * time.Millisecond) // message 1 is ~0.3 s of fluid at 1e6 B/s
	holdAcks = true
	p.sched.RunFor(300 * time.Millisecond) // message 3 has been in the engine for ~0.2 s
	if len(got) != 3 || c.FluidCompleted() != 1 || c.FluidDemotions() != 0 {
		t.Fatalf("before the fault: delivered %v, FluidCompleted=%d FluidDemotions=%d; want [0 1 2], 1, 0", got, c.FluidCompleted(), c.FluidDemotions())
	}
	// Only message 0 was acked before the hold, so everything beyond it is
	// the active flow's analytic progress: ~0.2 s at 1e6 B/s.
	if acked := c.BytesAcked(); acked < 100+150_000 || acked > 100+250_000 {
		t.Fatalf("with message 1's ACK held, BytesAcked = %d, want 100 plus ~200000 of message 3 in flight", acked)
	}
	a2b.Impair(simnet.Impairment{LossProb: 0.01, Seed: 7})
	p.sched.RunFor(50 * time.Millisecond)
	if c.FluidDemotions() != 1 {
		t.Fatalf("FluidDemotions = %d after the impairment, want 1", c.FluidDemotions())
	}
	holdAcks = false
	a2b.Impair(simnet.Impairment{})
	p.sched.Run()

	if len(got) != len(sizes) {
		t.Fatalf("delivered %v, want all %d messages", got, len(sizes))
	}
	if c.FluidCompleted() != 2 || c.FluidDemotions() != 1 {
		t.Fatalf("FluidCompleted=%d FluidDemotions=%d, want 2 and 1", c.FluidCompleted(), c.FluidDemotions())
	}
	if c.BytesAcked() != total {
		t.Fatalf("BytesAcked = %d at the end, want %d", c.BytesAcked(), total)
	}
}
