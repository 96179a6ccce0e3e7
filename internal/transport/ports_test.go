package transport

import (
	"math/rand"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// scanAllocPort is the allocPort the port-use table replaced, without
// its side effect: probe upward from nextPort, wrapping at 65535, and
// ask every connection on the host whether it holds the port. It is
// the reference for the order ports are handed out in.
func scanAllocPort(h *Host) (port, next uint16) {
	next = h.nextPort
	for {
		p := next
		next++
		if next < 32768 {
			next = 32768
		}
		free := true
		for _, c := range h.conns {
			if c.flow.SrcPort == p {
				free = false
				break
			}
		}
		if free {
			return p, next
		}
	}
}

// checkPortUse holds the table to the connections it summarises.
func checkPortUse(t *testing.T, h *Host, when string) {
	t.Helper()
	want := map[uint16]uint32{}
	for _, c := range h.conns {
		if c.flow.SrcPort >= ephemeralBase {
			want[c.flow.SrcPort]++
		}
	}
	if int(h.portsBusy) != len(want) {
		t.Fatalf("%s: portsBusy = %d, %d ephemeral ports carry connections", when, h.portsBusy, len(want))
	}
	for i, n := range h.portUse {
		if n == 0 {
			continue
		}
		p := uint16(i + ephemeralBase)
		if n != want[p] {
			t.Fatalf("%s: portUse[%d] = %d, %d connections on the port", when, p, n, want[p])
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("%s: the table misses connections on ports %v", when, want)
	}
}

// TestAllocPortMatchesScan drives a host through dials, closes, wraps
// of the port counter and connections accepted on an ephemeral port
// (which share it), and checks every port Dial takes against the scan.
func TestAllocPortMatchesScan(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Microsecond})
	const busyListener = 32770
	var accepted []*Conn
	if _, err := p.ha.Listen(busyListener, func(c *Conn) { accepted = append(accepted, c) }); err != nil {
		t.Fatal(err)
	}
	p.hb.Listen(80, func(*Conn) {})
	rng := rand.New(rand.NewSource(1))
	var dialled []*Conn
	wraps := 0
	for op := 0; op < 2000; op++ {
		switch k := rng.Intn(20); {
		case k < 11:
			want, next := scanAllocPort(p.ha)
			if next < p.ha.nextPort {
				wraps++
			}
			c := p.ha.Dial(p.hb.Node().Addr(), 80, Options{})
			if got := c.Flow().SrcPort; got != want || p.ha.nextPort != next {
				t.Fatalf("op %d: dialled from port %d (next %d), the scan gives %d (next %d)", op, got, p.ha.nextPort, want, next)
			}
			dialled = append(dialled, c)
		case k < 17 && len(dialled) > 0:
			i := rng.Intn(len(dialled))
			dialled[i].Abort()
			dialled[i] = dialled[len(dialled)-1]
			dialled = dialled[:len(dialled)-1]
		case k < 18:
			// Up to three connections at a time share the listener's port.
			if len(accepted) < 3 {
				p.hb.Dial(p.ha.Node().Addr(), busyListener, Options{})
				p.sched.RunFor(time.Millisecond)
			} else {
				accepted[0].Abort()
				accepted = accepted[1:]
			}
		case k < 19:
			p.ha.nextPort = 65535 - uint16(rng.Intn(4)) // the next few dials wrap
		default:
			p.sched.RunFor(time.Millisecond)
		}
		checkPortUse(t, p.ha, "after op")
	}
	if wraps < 10 || len(accepted) == 0 {
		t.Fatalf("script wrapped %d times with %d accepted connections: it did not exercise what it is for", wraps, len(accepted))
	}
	for _, c := range append(dialled, accepted...) {
		c.Abort()
	}
	checkPortUse(t, p.ha, "after closing everything")
	if p.ha.portsBusy != 0 {
		t.Fatalf("%d ports still busy on an idle host", p.ha.portsBusy)
	}
}

// TestDialWithoutFreePortFails: with all 32768 ephemeral ports taken a
// Dial ends in OnClose(ErrNoEphemeralPort) rather than probing forever,
// and the next one succeeds once a port is released.
func TestDialWithoutFreePortFails(t *testing.T) {
	p := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Microsecond})
	p.hb.Listen(80, func(*Conn) {})
	dst := p.hb.Node().Addr()
	var filler []*Conn
	for port := ephemeralBase; port < 1<<16; port++ {
		c := &Conn{host: p.ha, flow: simnet.FlowKey{Src: p.ha.Node().Addr(), Dst: dst, SrcPort: uint16(port), DstPort: 80, Proto: simnet.ProtoTCP}}
		p.ha.addConn(c)
		filler = append(filler, c)
	}
	checkPortUse(t, p.ha, "filled")

	var got error
	closes := 0
	c := p.ha.Dial(dst, 80, Options{})
	c.SetOnClose(func(err error) { got = err; closes++ })
	if err := c.SendMessage("queued", 100); err != nil {
		t.Fatalf("send before the failure is delivered: %v", err)
	}
	p.sched.RunFor(time.Second)
	if got != ErrNoEphemeralPort || closes != 1 {
		t.Fatalf("OnClose ran %d times, last with %v; want once with ErrNoEphemeralPort", closes, got)
	}
	if err := c.SendMessage("late", 100); err == nil {
		t.Fatal("send on the failed connection succeeded")
	}
	if p.ha.ConnCount() != len(filler) {
		t.Fatalf("%d connections registered, want the %d fillers", p.ha.ConnCount(), len(filler))
	}
	checkPortUse(t, p.ha, "after the failed dial")

	filler[1234].Abort()
	c = p.ha.Dial(dst, 80, Options{})
	if got := c.Flow().SrcPort; got != ephemeralBase+1234 {
		t.Fatalf("dialled from port %d, want the one released (%d)", got, ephemeralBase+1234)
	}
	established := false
	c.SetOnEstablished(func() { established = true })
	p.sched.RunFor(time.Second)
	if !established {
		t.Fatal("connection from the released port did not establish")
	}
	checkPortUse(t, p.ha, "after the successful dial")
}
