package simnet

import (
	"strings"
	"testing"
	"time"
)

func TestStringFormats(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("alpha")
	b := net.AddNode("beta")
	l := net.Connect(a, b, LinkConfig{Rate: Gbps})
	if got := a.String(); !strings.Contains(got, "alpha") || !strings.Contains(got, "10.0.0.1") {
		t.Fatalf("node string: %q", got)
	}
	if got := l.String(); !strings.Contains(got, "alpha") || !strings.Contains(got, "beta") {
		t.Fatalf("link string: %q", got)
	}
	f := FlowKey{Src: a.Addr(), Dst: b.Addr(), SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	if got := f.String(); !strings.Contains(got, "->") || !strings.Contains(got, "/6") {
		t.Fatalf("flow string: %q", got)
	}
}

func TestSchedulerStepsCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i), func() {})
	}
	s.Run()
	if s.Steps() != 5 {
		t.Fatalf("steps = %d", s.Steps())
	}
}

func TestNetworkAccessors(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	if net.Scheduler() != s {
		t.Fatal("scheduler accessor")
	}
	if net.Node("a") != a || net.Node("zz") != nil {
		t.Fatal("node lookup")
	}
	if net.NodeByAddr(a.Addr()) != a || net.NodeByAddr(0) != nil {
		t.Fatal("addr lookup")
	}
	if len(net.Nodes()) != 1 || len(net.Links()) != 0 {
		t.Fatal("listing")
	}
	if a.Network() != net || a.ID() != 0 || a.Name() != "a" {
		t.Fatal("node accessors")
	}
}

func TestConnectValidation(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	b := net.AddNode("b")
	for _, f := range []func(){
		func() { net.Connect(a, b, LinkConfig{}) },
		func() { net.Connect(a, a, LinkConfig{Rate: Gbps}) },
		func() { net.AddNode("a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid operation accepted")
				}
			}()
			f()
		}()
	}
}

func TestNICAccessors(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	a := net.AddNode("a")
	b := net.AddNode("b")
	l := net.Connect(a, b, LinkConfig{Rate: Gbps})
	nic := a.NICs()[0]
	if nic.Node() != a || nic.Link() != l || nic.Peer() != l.B() {
		t.Fatal("NIC topology accessors")
	}
	if nic.Qdisc() == nil {
		t.Fatal("default qdisc missing")
	}
	nic.SetQdisc(nil) // resets to a fresh FIFO
	if nic.Qdisc() == nil {
		t.Fatal("nil SetQdisc did not install a FIFO")
	}
	if l.ID() != 0 || l.Config().Rate != Gbps {
		t.Fatal("link accessors")
	}
}

func TestTapClearable(t *testing.T) {
	s, net, a, b := twoNodes(t, LinkConfig{Rate: Gbps})
	n := 0
	nic := a.NICs()[0]
	nic.SetTap(func(*Packet, time.Duration) { n++ })
	b.SetDeliver(func(*Packet) {})
	a.Inject(mkPacket(net, a, b, 100))
	s.Run()
	nic.SetTap(nil)
	a.Inject(mkPacket(net, a, b, 100))
	s.Run()
	if n != 1 {
		t.Fatalf("tap fired %d times, want 1", n)
	}
}
