package tc

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// TestREDValidation checks RED's fixed thresholds: with its average
// held at zero (a queue filling faster than the average follows), it
// takes packets up to its hard cap of 4 × redMax bytes without an early
// drop, and the next packet is a hard drop that consumes no early-drop
// draw.
func TestREDValidation(t *testing.T) {
	if !(0 < redMin && redMin < redMax && redMax < redLimit) {
		t.Fatalf("thresholds %d < %d < %d out of order", redMin, redMax, redLimit)
	}
	q := NewRED(1)
	for q.Backlog()+simnet.MTU <= redLimit {
		q.avg = 0
		if !q.Enqueue(&simnet.Packet{Size: simnet.MTU}) {
			t.Fatalf("dropped at backlog %d of %d", q.Backlog(), redLimit)
		}
	}
	q.avg = 0
	if q.Enqueue(&simnet.Packet{Size: simnet.MTU}) || q.HardDrops() != 1 || q.EarlyDrops() != 0 {
		t.Fatalf("at the cap: hard drops %d, early drops %d", q.HardDrops(), q.EarlyDrops())
	}
	if want := NewRED(1).rng.Float64(); q.rng.Float64() != want {
		t.Fatal("a hard drop consumed an early-drop draw")
	}
}

func TestREDPassesLightLoad(t *testing.T) {
	q := NewRED(1)
	for i := 0; i < 10; i++ {
		if !q.Enqueue(&simnet.Packet{Size: 1000}) {
			t.Fatal("light load dropped")
		}
	}
	if q.EarlyDrops() != 0 {
		t.Fatal("early drops under light load")
	}
	n := 0
	for q.Dequeue() != nil {
		n++
	}
	if n != 10 {
		t.Fatalf("dequeued %d", n)
	}
}

func TestREDDropsUnderStandingQueue(t *testing.T) {
	q := NewRED(2)
	accepted := 0
	// Hold a standing queue of redMax bytes, one packet in for each
	// out: the average climbs past redMin to redMax, and drops begin.
	for q.Backlog() < redMax {
		q.Enqueue(&simnet.Packet{Size: simnet.MTU})
	}
	for i := 0; i < 5000; i++ {
		if q.Enqueue(&simnet.Packet{Size: simnet.MTU}) {
			accepted++
		}
		q.Dequeue()
	}
	if q.EarlyDrops() == 0 {
		t.Fatal("no early drops with a standing queue way past max")
	}
	if accepted == 0 {
		t.Fatal("everything dropped")
	}
}

func TestREDEarlyDropsBeforeOverflow(t *testing.T) {
	// With a drain keeping the queue in the early region, drops happen
	// probabilistically, not at the hard limit.
	q := NewRED(3)
	for i := 0; i < 20000; i++ {
		q.Enqueue(&simnet.Packet{Size: simnet.MTU})
		if i%3 != 0 {
			q.Dequeue()
		}
	}
	if q.EarlyDrops() == 0 {
		t.Fatal("no early drops in the ramp region")
	}
	if q.HardDrops() > q.EarlyDrops() {
		t.Fatalf("hard drops (%d) dominate early drops (%d)", q.HardDrops(), q.EarlyDrops())
	}
}

func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	s := simnet.NewScheduler()
	q := NewCoDel(s.Now)
	for i := 0; i < 100; i++ {
		q.Enqueue(&simnet.Packet{Size: 1000})
		if q.Dequeue() == nil {
			t.Fatal("packet vanished")
		}
	}
	if q.Drops() != 0 {
		t.Fatalf("drops = %d with zero sojourn", q.Drops())
	}
}

func TestCoDelDropsOnPersistentDelay(t *testing.T) {
	s := simnet.NewScheduler()
	q := NewCoDel(s.Now)
	// Enqueue a standing queue, then dequeue slowly so sojourn times
	// stay far above target for many intervals.
	fill := func() {
		for q.Backlog() < 100*simnet.MTU {
			q.Enqueue(&simnet.Packet{Size: simnet.MTU})
		}
	}
	fill()
	got := 0
	for i := 0; i < 200; i++ {
		s.RunUntil(s.Now() + 10*time.Millisecond)
		if p := q.Dequeue(); p != nil {
			got++
		}
		fill()
	}
	if q.Drops() == 0 {
		t.Fatal("CoDel never dropped despite persistent >target sojourn")
	}
	if got == 0 {
		t.Fatal("CoDel delivered nothing")
	}
}

func TestCoDelKeepsQueueDelayBounded(t *testing.T) {
	// End-to-end: a Reno bulk flow through a CoDel bottleneck should
	// settle near the target delay instead of filling the buffer
	// (droptail would hold ~a full queue of delay).
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, simnet.LinkConfig{Rate: 20 * simnet.Mbps, Delay: time.Millisecond})
	nic := a.NICs()[0]
	nic.SetQdisc(NewCoDel(s.Now))

	ha, hb := transport.NewHost(a), transport.NewHost(b)
	hb.Listen(80, func(c *transport.Conn) { c.SetOnMessage(func(any, int) {}) })
	conn := ha.Dial(b.Addr(), 80, transport.Options{CC: "reno"})
	conn.SendMessage("bulk", 1<<30)

	var maxBacklog int
	probe := func() {}
	probe = func() {
		if nic.QueueDepth() > maxBacklog {
			maxBacklog = nic.QueueDepth()
		}
		s.After(10*time.Millisecond, probe)
	}
	s.After(2*time.Second, probe) // skip slow-start transient
	s.RunUntil(10 * time.Second)

	// 20 Mbps * 5ms target = 12.5 KB; allow generous slack for bursts,
	// but far below the 1.5 MB droptail default.
	if maxBacklog > 300*simnet.MTU {
		t.Fatalf("steady-state backlog reached %d bytes; CoDel not controlling delay", maxBacklog)
	}
	cq := nic.Qdisc().(*CoDel)
	if cq.Drops() == 0 {
		t.Fatal("CoDel never signalled the flow")
	}
}

func TestCoDelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock accepted")
		}
	}()
	NewCoDel(nil)
}
