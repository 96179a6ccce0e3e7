package transport

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// pair wires two hosts over one configurable link.
type pair struct {
	sched  *simnet.Scheduler
	net    *simnet.Network
	ha, hb *Host
	link   *simnet.Link
}

func newPair(t *testing.T, cfg simnet.LinkConfig) *pair {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.Connect(a, b, cfg)
	return &pair{sched: s, net: n, ha: NewHost(a), hb: NewHost(b), link: l}
}

func TestHandshakeAndSingleMessage(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	var got any
	var gotSize int
	if _, err := p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(meta any, size int) { got, gotSize = meta, size })
	}); err != nil {
		t.Fatal(err)
	}
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	established := false
	c.SetOnEstablished(func() { established = true })
	if err := c.SendMessage("hello", 5000); err != nil {
		t.Fatal(err)
	}
	p.sched.Run()
	if !established {
		t.Fatal("handshake never completed")
	}
	if got != "hello" || gotSize != 5000 {
		t.Fatalf("got %v/%d, want hello/5000", got, gotSize)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: 500 * time.Microsecond})
	var got []int
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(meta any, _ int) { got = append(got, meta.(int)) })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	for i := 0; i < 50; i++ {
		c.SendMessage(i, 2000+i)
	}
	p.sched.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d messages, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message order broken at %d: %v", i, v)
		}
	}
}

func TestBidirectional(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	var serverGot, clientGot any
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(meta any, size int) {
			serverGot = meta
			c.SendMessage("response", 100000) // respond on same conn
		})
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SetOnMessage(func(meta any, size int) { clientGot = meta })
	c.SendMessage("request", 300)
	p.sched.Run()
	if serverGot != "request" || clientGot != "response" {
		t.Fatalf("server=%v client=%v", serverGot, clientGot)
	}
}

func TestLargeTransferThroughput(t *testing.T) {
	// 10 MB over a 100 Mbps, 1 ms link should take ~0.85 s; allow
	// slow-start and header overhead slack.
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	done := time.Duration(0)
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { done = p.sched.Now() })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("blob", 10<<20)
	p.sched.RunUntil(30 * time.Second)
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	if done > 2*time.Second {
		t.Fatalf("10MB took %v, want < 2s on 100Mbps", done)
	}
}

func TestSmallTransferNoLoss(t *testing.T) {
	// 1 MB fits within the default queue even at slow-start overshoot:
	// a clean link must see zero retransmissions.
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	done := time.Duration(0)
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { done = p.sched.Now() })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("blob", 1<<20)
	p.sched.RunUntil(10 * time.Second)
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	if c.Retransmits() != 0 {
		t.Fatalf("retransmits on a clean, uncongested link: %d", c.Retransmits())
	}
	if c.Timeouts() != 0 {
		t.Fatalf("timeouts on a clean link: %d", c.Timeouts())
	}
}

func TestLossRecoveryViaQueueOverflow(t *testing.T) {
	// A tiny queue forces drops; the transfer must still complete.
	p := newPair(t, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 2 * time.Millisecond, QueueBytes: 8 * simnet.MTU})
	var done time.Duration
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) { done = p.sched.Now() })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("blob", 2<<20)
	p.sched.RunUntil(60 * time.Second)
	if done == 0 {
		t.Fatal("transfer never completed under loss")
	}
	if c.Retransmits() == 0 {
		t.Fatal("expected drops and retransmits with an 8-MTU queue")
	}
}

func TestCloseHandshake(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	var serverClosed, clientClosed bool
	var serverErr, clientErr error = nil, nil
	p.hb.Listen(80, func(c *Conn) {
		c.SetOnMessage(func(any, int) {})
		c.SetOnClose(func(err error) { serverClosed, serverErr = true, err })
	})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SetOnClose(func(err error) { clientClosed, clientErr = true, err })
	c.SendMessage("bye", 1000)
	c.Close()
	p.sched.Run()
	if !clientClosed || clientErr != nil {
		t.Fatalf("client closed=%v err=%v", clientClosed, clientErr)
	}
	if !serverClosed || serverErr != nil {
		t.Fatalf("server closed=%v err=%v", serverClosed, serverErr)
	}
	if p.ha.ConnCount() != 0 || p.hb.ConnCount() != 0 {
		t.Fatalf("conns leaked: a=%d b=%d", p.ha.ConnCount(), p.hb.ConnCount())
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps})
	p.hb.Listen(80, func(c *Conn) {})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.Close()
	if err := c.SendMessage("x", 10); err == nil {
		t.Fatal("send after Close succeeded")
	}
}

func TestConnectTimeout(t *testing.T) {
	// Dial a node with no listener on an isolated network island: SYN
	// retries exhaust and OnClose fires with ErrConnectTimeout.
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	a := n.AddNode("a")
	n.AddNode("island")
	ha := NewHost(a)
	var got error
	c := ha.Dial(n.Node("island").Addr(), 80, Options{})
	c.SetOnClose(func(err error) { got = err })
	s.RunUntil(2 * time.Minute)
	if got != ErrConnectTimeout {
		t.Fatalf("err = %v, want ErrConnectTimeout", got)
	}
}

func TestAbort(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps})
	p.hb.Listen(80, func(c *Conn) {})
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	var got error
	c.SetOnClose(func(err error) { got = err })
	p.sched.RunFor(time.Second)
	c.Abort()
	if got != ErrReset {
		t.Fatalf("err = %v, want ErrReset", got)
	}
	if p.ha.ConnCount() != 0 {
		t.Fatal("aborted conn still registered")
	}
}

func TestMarkStampedOnPackets(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps})
	marks := map[simnet.Mark]int{}
	// Snoop at delivery time on node b by wrapping its deliver hook
	// after the transport host installed its own.
	orig := p.hb
	_ = orig
	p.hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })
	// Re-wrap node delivery to count marks then forward.
	node := p.hb.Node()
	inner := p.hb
	node.SetDeliver(func(pkt *simnet.Packet) {
		marks[pkt.Mark]++
		inner.deliver(pkt)
	})
	c := p.ha.Dial(node.Addr(), 80, Options{Mark: simnet.MarkHigh})
	c.SendMessage("x", 50000)
	p.sched.Run()
	if marks[simnet.MarkHigh] == 0 {
		t.Fatal("no packets carried the high mark")
	}
	if marks[simnet.MarkDefault] > 0 {
		t.Fatal("some data packets lost their mark")
	}
}

func TestSetMarkMidStream(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: 10 * simnet.Mbps})
	seen := map[simnet.Mark]bool{}
	p.hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })
	node := p.hb.Node()
	inner := p.hb
	node.SetDeliver(func(pkt *simnet.Packet) {
		seen[pkt.Mark] = true
		inner.deliver(pkt)
	})
	c := p.ha.Dial(node.Addr(), 80, Options{Mark: simnet.MarkLow})
	c.SendMessage("a", 100000)
	p.sched.RunFor(50 * time.Millisecond)
	c.SetMark(simnet.MarkHigh)
	c.SendMessage("b", 100000)
	p.sched.Run()
	if !seen[simnet.MarkLow] || !seen[simnet.MarkHigh] {
		t.Fatalf("marks seen: %v, want both low and high", seen)
	}
}

func TestRTTEstimate(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: 5 * time.Millisecond})
	p.hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	c.SendMessage("x", 100000)
	p.sched.Run()
	// RTT = 2 * 5ms + serialization (~12us/MTU) ≈ 10ms.
	if c.SRTT() < 10*time.Millisecond || c.SRTT() > 12*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~10ms", c.SRTT())
	}
}

func TestScavengerYieldsToBestEffort(t *testing.T) {
	// Two flows share a 10 Mbps bottleneck: one Reno, one LEDBAT.
	// The scavenger should take a small share while Reno is active.
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	src1 := n.AddNode("src1")
	src2 := n.AddNode("src2")
	sw := n.AddNode("sw")
	dst := n.AddNode("dst")
	n.Connect(src1, sw, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Millisecond})
	n.Connect(src2, sw, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Millisecond})
	n.Connect(sw, dst, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: time.Millisecond, QueueBytes: 100 * simnet.MTU})

	h1, h2, hd := NewHost(src1), NewHost(src2), NewHost(dst)
	var renoBytes, ledbatBytes uint64
	hd.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) {}) })

	reno := h1.Dial(dst.Addr(), 80, Options{CC: "reno"})
	scav := h2.Dial(dst.Addr(), 80, Options{CC: "ledbat"})
	reno.SendMessage("r", 100<<20) // far more than the link can move
	scav.SendMessage("s", 100<<20)
	s.RunUntil(20 * time.Second)
	renoBytes = reno.BytesAcked()
	ledbatBytes = scav.BytesAcked()

	if renoBytes == 0 || ledbatBytes == 0 {
		t.Fatalf("reno=%d ledbat=%d; both must progress", renoBytes, ledbatBytes)
	}
	share := float64(ledbatBytes) / float64(renoBytes+ledbatBytes)
	if share > 0.25 {
		t.Fatalf("scavenger share = %.2f, want < 0.25 (should yield)", share)
	}
}

func TestScavengerUsesIdleCapacity(t *testing.T) {
	// Alone on the link, LEDBAT should reach near line rate.
	p := newPair(t, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: time.Millisecond, QueueBytes: 100 * simnet.MTU})
	var done time.Duration
	p.hb.Listen(80, func(c *Conn) { c.SetOnMessage(func(any, int) { done = p.sched.Now() }) })
	c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{CC: "ledbat"})
	c.SendMessage("blob", 5<<20) // 5 MB at 10 Mbps ≈ 4.2 s
	p.sched.RunUntil(60 * time.Second)
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	if done > 8*time.Second {
		t.Fatalf("lone scavenger took %v, want < 8s (near line rate)", done)
	}
}

func TestListenRejectsDuplicatePort(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps})
	if _, err := p.hb.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.hb.Listen(80, nil); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

func TestListenerClose(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps})
	accepted := 0
	l, _ := p.hb.Listen(80, func(c *Conn) { accepted++ })
	c1 := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	p.sched.RunFor(time.Second)
	l.Close()
	c2 := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
	var err2 error
	c2.SetOnClose(func(err error) { err2 = err })
	p.sched.RunUntil(3 * time.Minute)
	_ = c1
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}
	if err2 != ErrConnectTimeout {
		t.Fatalf("dial after listener close: err=%v, want timeout", err2)
	}
}

func TestControllersAdvanceWindow(t *testing.T) {
	for _, name := range []string{"reno", "cubic", "ledbat", "lp"} {
		s := simnet.NewScheduler()
		cc := NewController(name, s.Now)
		w0 := cc.Window()
		for i := 0; i < 100; i++ {
			cc.OnAck(MSS, 10*time.Millisecond)
		}
		if cc.Window() <= w0 {
			t.Fatalf("%s window did not grow: %d -> %d", name, w0, cc.Window())
		}
		grown := cc.Window()
		cc.OnLoss()
		if cc.Window() >= grown {
			t.Fatalf("%s window did not shrink on loss", name)
		}
		cc.OnTimeout()
		if cc.Window() > grown/2 {
			t.Fatalf("%s window did not collapse on timeout", name)
		}
	}
}

func TestUnknownControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown CC name did not panic")
		}
	}()
	NewController("bbr9000", nil)
}

func TestIsScavenger(t *testing.T) {
	if !IsScavenger("ledbat") || !IsScavenger("lp") {
		t.Fatal("scavengers not recognized")
	}
	if IsScavenger("reno") || IsScavenger("cubic") || IsScavenger("") {
		t.Fatal("best-effort misclassified as scavenger")
	}
}
