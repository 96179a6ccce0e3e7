package simnet

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// twoNodes builds a <- link -> b with the given config.
func twoNodes(t *testing.T, cfg LinkConfig) (*Scheduler, *Network, *Node, *Node) {
	t.Helper()
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.Connect(a, b, cfg)
	return s, net, a, b
}

func mkPacket(net *Network, src, dst *Node, size int) *Packet {
	return &Packet{
		ID:   net.NextPacketID(),
		Flow: FlowKey{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 1000, DstPort: 80, Proto: ProtoTCP},
		Size: size,
	}
}

func TestPointToPointDelivery(t *testing.T) {
	s, net, a, b := twoNodes(t, LinkConfig{Rate: 8 * Mbps, Delay: 10 * time.Millisecond})
	var gotAt time.Duration
	var got *Packet
	b.SetDeliver(func(p *Packet) { got, gotAt = p, s.Now() })

	p := mkPacket(net, a, b, 1000) // 1000B at 8Mbps = 1ms serialization
	a.Inject(p)
	s.Run()

	if got == nil {
		t.Fatal("packet not delivered")
	}
	want := 11 * time.Millisecond // 1ms tx + 10ms propagation
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
}

func TestSerializationQueueing(t *testing.T) {
	s, net, a, b := twoNodes(t, LinkConfig{Rate: 8 * Mbps, Delay: 0})
	var times []time.Duration
	b.SetDeliver(func(p *Packet) { times = append(times, s.Now()) })

	// Three 1000B packets injected together serialize back to back at
	// 1ms each.
	for i := 0; i < 3; i++ {
		a.Inject(mkPacket(net, a, b, 1000))
	}
	s.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(times))
	}
	for i, want := range []time.Duration{1, 2, 3} {
		if times[i] != want*time.Millisecond {
			t.Fatalf("packet %d delivered at %v, want %vms", i, times[i], want)
		}
	}
}

func TestLoopbackImmediate(t *testing.T) {
	s, net, a, _ := twoNodes(t, LinkConfig{Rate: Gbps})
	var gotAt time.Duration = -1
	a.SetDeliver(func(p *Packet) { gotAt = s.Now() })
	p := mkPacket(net, a, a, 5000)
	p.Flow.Dst = a.Addr()
	a.Inject(p)
	s.Run()
	if gotAt != 0 {
		t.Fatalf("loopback delivered at %v, want immediately", gotAt)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	sw := net.AddNode("switch")
	b := net.AddNode("b")
	net.Connect(a, sw, LinkConfig{Rate: 8 * Mbps})
	net.Connect(sw, b, LinkConfig{Rate: 8 * Mbps})

	var got *Packet
	b.SetDeliver(func(p *Packet) { got = p })
	a.Inject(mkPacket(net, a, b, 1000))
	s.Run()

	if got == nil {
		t.Fatal("packet not forwarded across switch")
	}
	if got.TTL != DefaultTTL-1 {
		t.Fatalf("TTL = %d, want %d", got.TTL, DefaultTTL-1)
	}
	if sw.forwarded != 1 {
		t.Fatalf("switch forwarded %d, want 1", sw.forwarded)
	}
}

func TestFlowRouteOverride(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	b := net.AddNode("b")
	mid := net.AddNode("mid")
	net.Connect(a, b, LinkConfig{Rate: Mbps})
	net.Connect(a, mid, LinkConfig{Rate: Mbps})
	viaMid := net.Connect(mid, b, LinkConfig{Rate: Mbps})

	p := mkPacket(net, a, b, 100)
	// Pin this flow through mid.
	a.SetFlowRoute(p.Flow, a.NICs()[1])
	b.SetDeliver(func(*Packet) {})
	a.Inject(p)
	s.Run()
	if viaMid.A().TxPackets() != 1 {
		t.Fatal("flow route override ignored")
	}

	// Remove the pin: back to the direct link.
	p2 := mkPacket(net, a, b, 100)
	a.SetFlowRoute(p2.Flow, nil)
	a.Inject(p2)
	s.Run()
	if viaMid.A().TxPackets() != 1 {
		t.Fatal("flow still pinned after removal")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, net, a, b := twoNodes(t, LinkConfig{Rate: 8 * Kbps, QueueBytes: 2500})
	drops := 0
	net.OnDrop(func(p *Packet, at *NIC) { drops++ })
	delivered := 0
	b.SetDeliver(func(*Packet) { delivered++ })

	// 1000B packets: 1 in flight + 2500B of queue = 3 accepted max at
	// injection time; the rest drop.
	for i := 0; i < 6; i++ {
		a.Inject(mkPacket(net, a, b, 1000))
	}
	s.Run()
	if drops == 0 {
		t.Fatal("no drops despite overflow")
	}
	if delivered+drops != 6 {
		t.Fatalf("delivered %d + drops %d != 6", delivered, drops)
	}
	if a.NICs()[0].Drops() != uint64(drops) {
		t.Fatalf("NIC drop counter %d, want %d", a.NICs()[0].Drops(), drops)
	}
}

func TestNoRouteDrop(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	net.AddNode("island") // not connected
	drops := 0
	net.OnDrop(func(p *Packet, at *NIC) { drops++ })
	p := &Packet{Flow: FlowKey{Src: a.Addr(), Dst: net.Node("island").Addr()}, Size: 100}
	a.Inject(p)
	s.Run()
	if drops != 1 {
		t.Fatalf("drops = %d, want 1 (no route)", drops)
	}
}

func TestAddrString(t *testing.T) {
	a := AddrFromOctets(10, 0, 1, 2)
	if a.String() != "10.0.1.2" {
		t.Fatalf("Addr.String() = %q", a.String())
	}
}

// TestAddressesPast65535: numbering runs on through 10.0.0.0/8 once
// 10.0.0.0/16 is full, the first 65 535 nodes keep the addresses they
// always had, every address is distinct and resolves to its node, and
// the addresses just outside the numbered range resolve to none.
func TestAddressesPast65535(t *testing.T) {
	const nodes = 70000
	net := NewNetwork(NewScheduler())
	for i := 0; i < nodes; i++ {
		net.AddNode(strconv.Itoa(i))
	}
	distinct := make(map[Addr]bool, nodes)
	for _, n := range net.nodes {
		distinct[n.addr] = true
		if got := net.NodeByAddr(n.addr); got != n {
			t.Fatalf("NodeByAddr(%v) = %v, want %v", n.addr, got, n)
		}
	}
	if len(distinct) != nodes {
		t.Fatalf("%d nodes hold %d distinct addresses", nodes, len(distinct))
	}
	last := net.nodes[nodes-1].addr
	for _, a := range []Addr{AddrFromOctets(10, 0, 0, 0), last + 1} {
		if got := net.NodeByAddr(a); got != nil {
			t.Fatalf("NodeByAddr(%v) = %v, want nil", a, got)
		}
	}
	for _, c := range []struct {
		id   int
		want string
	}{{0, "10.0.0.1"}, {255, "10.0.1.0"}, {65534, "10.0.255.255"}, {65535, "10.1.0.0"}, {nodes - 1, "10.1.17.112"}} {
		if got := net.nodes[c.id].addr.String(); got != c.want {
			t.Fatalf("node %d has address %s, want %s", c.id, got, c.want)
		}
	}
}

func TestFlowKeyReverse(t *testing.T) {
	f := FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := f.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 20 || r.DstPort != 10 {
		t.Fatalf("Reverse() = %+v", r)
	}
	if r.Reverse() != f {
		t.Fatal("double reverse != original")
	}
}

func TestFIFOBacklogAccounting(t *testing.T) {
	f := NewFIFO(3000)
	for i := 0; i < 3; i++ {
		if !f.Enqueue(&Packet{Size: 1000}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if f.Enqueue(&Packet{Size: 1000}) {
		t.Fatal("enqueue beyond limit accepted")
	}
	if f.Backlog() != 3000 || f.Len() != 3 {
		t.Fatalf("backlog=%d len=%d", f.Backlog(), f.Len())
	}
	f.Dequeue()
	if f.Backlog() != 2000 || f.Len() != 2 {
		t.Fatalf("after dequeue backlog=%d len=%d", f.Backlog(), f.Len())
	}
	if f.Drops() != 1 {
		t.Fatalf("drops=%d, want 1", f.Drops())
	}
}

// TestFIFOOrderAndReuse drives the FIFO with random enqueues and
// dequeues against a plain reference slice, then checks the two things
// its Queue's head index is for: a queue that keeps draining allocates
// nothing, and one that never drains does not grow without bound.
func TestFIFOOrderAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFIFO(1 << 30)
	var ref []*Packet
	for i := 0; i < 20000; i++ {
		if rng.Intn(100) < 52 {
			p := &Packet{Size: 1 + rng.Intn(1500)}
			f.Enqueue(p)
			ref = append(ref, p)
		} else {
			var want *Packet
			if len(ref) > 0 {
				want, ref = ref[0], ref[1:]
			}
			if got := f.Dequeue(); got != want {
				t.Fatalf("step %d: dequeued %p, want %p", i, got, want)
			}
		}
		bytes := 0
		for _, p := range ref {
			bytes += p.Size
		}
		if f.Len() != len(ref) || f.Backlog() != bytes {
			t.Fatalf("step %d: len=%d backlog=%d, want %d and %d", i, f.Len(), f.Backlog(), len(ref), bytes)
		}
	}

	p := &Packet{Size: 100}
	g := NewFIFO(0)
	g.Enqueue(p)
	g.Dequeue()
	if n := testing.AllocsPerRun(100, func() { g.Enqueue(p); g.Enqueue(p); g.Dequeue(); g.Dequeue() }); n != 0 {
		t.Fatalf("draining FIFO allocates %v per round, want 0", n)
	}

	h := NewFIFO(1 << 30)
	for i := 0; i < 100; i++ {
		h.Enqueue(p)
	}
	for i := 0; i < 100000; i++ { // a standing backlog of 100 that never drains
		h.Enqueue(p)
		h.Dequeue()
	}
	if c := cap(h.queue.items); c > 1024 {
		t.Fatalf("standing backlog of 100 grew the array to %d slots", c)
	}
}

func TestBandwidthSharingTwoSenders(t *testing.T) {
	// Two senders into one switch, one egress: egress is the bottleneck
	// and total delivery time reflects its rate.
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	c := net.AddNode("c")
	sw := net.AddNode("sw")
	dst := net.AddNode("dst")
	net.Connect(a, sw, LinkConfig{Rate: 80 * Mbps})
	net.Connect(c, sw, LinkConfig{Rate: 80 * Mbps})
	net.Connect(sw, dst, LinkConfig{Rate: 8 * Mbps})

	var last time.Duration
	n := 0
	dst.SetDeliver(func(p *Packet) { last = s.Now(); n++ })
	for i := 0; i < 10; i++ {
		a.Inject(mkPacket(net, a, dst, 1000))
		c.Inject(mkPacket(net, c, dst, 1000))
	}
	s.Run()
	if n != 20 {
		t.Fatalf("delivered %d, want 20", n)
	}
	// 20 KB over 8 Mbps = 20 ms, plus the 0.1ms first-hop pipeline.
	if last < 20*time.Millisecond || last > 21*time.Millisecond {
		t.Fatalf("last delivery at %v, want ~20ms", last)
	}
}
