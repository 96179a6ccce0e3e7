package simnet

import (
	"testing"
	"time"
)

// flowNet builds a -- sw -- b with the given link rates (bps), fidelity
// already set, and returns the pieces tests need.
func flowNet(t *testing.T, fid Fidelity, rateA, rateB int64) (*Scheduler, *Network, *Node, *Node, *Node) {
	t.Helper()
	s := NewScheduler()
	net := NewNetwork(s)
	net.SetFidelity(fid)
	a := net.AddNode("a")
	sw := net.AddNode("sw")
	b := net.AddNode("b")
	net.Connect(a, sw, LinkConfig{Rate: rateA, Delay: time.Millisecond})
	net.Connect(sw, b, LinkConfig{Rate: rateB, Delay: time.Millisecond})
	return s, net, a, sw, b
}

func resolve(t *testing.T, net *Network, from, to *Node) ([]*NIC, time.Duration) {
	t.Helper()
	path, prop, ok := net.FlowEngine().ResolvePath(from, FlowKey{Src: from.Addr(), Dst: to.Addr()})
	if !ok {
		t.Fatalf("ResolvePath %s->%s failed", from.Name(), to.Name())
	}
	return path, prop
}

func TestFlowSingleCompletionTime(t *testing.T) {
	// 8 Mbps = 1e6 bytes/sec; 1e6 bytes should complete in exactly 1s.
	s, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, prop := resolve(t, net, a, b)
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2", len(path))
	}
	if prop != 2*time.Millisecond {
		t.Fatalf("prop delay = %v, want 2ms", prop)
	}
	var doneAt time.Duration = -1
	net.FlowEngine().Start(path, 1_000_000, func() { doneAt = s.Now() }, nil)
	s.Run()
	if doneAt != time.Second {
		t.Fatalf("completion at %v, want exactly 1s", doneAt)
	}
}

func TestFlowFairShareAndBottleneck(t *testing.T) {
	// Two flows a->b share the 8 Mbps second hop; a third constraint:
	// first hop is 80 Mbps so the second hop is the bottleneck. Each
	// flow gets 0.5e6 B/s; 1e6 bytes take 2s.
	s, net, a, _, b := flowNet(t, FidelityFlow, 80*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	var t1, t2 time.Duration
	id1 := e.Start(path, 1_000_000, func() { t1 = s.Now() }, nil)
	id2 := e.Start(path, 1_000_000, func() { t2 = s.Now() }, nil)
	if r, _ := e.Rate(id1); r != 500_000 {
		t.Fatalf("flow1 rate = %v, want 500000 B/s", r)
	}
	if r, _ := e.Rate(id2); r != 500_000 {
		t.Fatalf("flow2 rate = %v, want 500000 B/s", r)
	}
	s.Run()
	if t1 != 2*time.Second || t2 != 2*time.Second {
		t.Fatalf("completions at %v/%v, want 2s/2s", t1, t2)
	}
}

func TestFlowMaxMinFilling(t *testing.T) {
	// Flow X crosses both hops; flow Y only the second. First hop
	// 8 Mbps (1e6 B/s), second 80 Mbps (1e7 B/s). Max-min: X is capped
	// at 1e6 by hop one; Y then takes the rest of hop two, 9e6.
	_, net, a, sw, b := flowNet(t, FidelityFlow, 8*Mbps, 80*Mbps)
	e := net.FlowEngine()
	pathX, _ := resolve(t, net, a, b)
	pathY, _ := resolve(t, net, sw, b)
	x := e.Start(pathX, 1_000_000, nil, nil)
	y := e.Start(pathY, 1_000_000, nil, nil)
	if r, _ := e.Rate(x); r != 1e6 {
		t.Fatalf("X rate = %v, want 1e6", r)
	}
	if r, _ := e.Rate(y); r != 9e6 {
		t.Fatalf("Y rate = %v, want 9e6", r)
	}
}

func TestFlowRatesRecomputeOnCompletion(t *testing.T) {
	// Two equal flows share a link; when the shorter one finishes the
	// longer one doubles its rate. 8 Mbps link: flow1 5e5 bytes, flow2
	// 1.5e6 bytes. Phase 1: both at 5e5 B/s until t=1s (flow1 done,
	// flow2 has 1e6 left). Phase 2: flow2 at 1e6 B/s, done at t=2s.
	s, net, a, _, b := flowNet(t, FidelityFlow, 80*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	var t1, t2 time.Duration
	e.Start(path, 500_000, func() { t1 = s.Now() }, nil)
	e.Start(path, 1_500_000, func() { t2 = s.Now() }, nil)
	s.Run()
	if t1 != time.Second {
		t.Fatalf("short flow done at %v, want 1s", t1)
	}
	if t2 != 2*time.Second {
		t.Fatalf("long flow done at %v, want 2s", t2)
	}
}

func TestFlowCancel(t *testing.T) {
	s, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	fired := false
	id := e.Start(path, 1_000_000, func() { fired = true }, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel reported flow not active")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel should report inactive")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled flow fired a callback")
	}
	if e.Active() != 0 {
		t.Fatalf("Active = %d, want 0", e.Active())
	}
}

func TestFlowDemoteOnImpairment(t *testing.T) {
	s, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	var demotedAt time.Duration = -1
	completed := false
	e.Start(path, 1_000_000, func() { completed = true }, func() { demotedAt = s.Now() })
	s.RunFor(100 * time.Millisecond)
	// Impair the reverse direction of the first hop: the ACK path.
	path[0].Peer().Impair(Impairment{LossProb: 0.5, Seed: 1})
	s.Run()
	if completed {
		t.Fatal("flow completed despite impairment demotion")
	}
	if demotedAt != 100*time.Millisecond {
		t.Fatalf("demoted at %v, want 100ms (deferred to same timestamp)", demotedAt)
	}
	if got := e.Stats().Demoted; got != 1 {
		t.Fatalf("Stats.Demoted = %d, want 1", got)
	}
}

func TestFlowDemoteOnLinkDown(t *testing.T) {
	s, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	demoted := false
	e.Start(path, 1_000_000, nil, func() { demoted = true })
	s.RunFor(10 * time.Millisecond)
	path[1].Link().SetDown(true)
	s.RunFor(time.Millisecond)
	if !demoted {
		t.Fatal("SetDown did not demote the crossing flow")
	}
}

func TestFlowDemoteOnQdiscChange(t *testing.T) {
	s, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	demoted := false
	e.Start(path, 1_000_000, nil, func() { demoted = true })
	s.RunFor(10 * time.Millisecond)
	path[0].SetQdisc(NewFIFO(4096))
	s.RunFor(time.Millisecond)
	if !demoted {
		t.Fatal("SetQdisc did not demote the crossing flow")
	}
}

func TestHybridDemoteOnContention(t *testing.T) {
	// In hybrid fidelity a data-sized packet hitting a fluid-saturated
	// NIC demotes the flows there; control-sized packets never do.
	s, net, a, _, b := flowNet(t, FidelityHybrid, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	demoted := false
	e.Start(path, 1_000_000, nil, func() { demoted = true })
	s.RunFor(10 * time.Millisecond)

	ctrl := net.AllocPacket()
	ctrl.Flow = FlowKey{Src: a.Addr(), Dst: b.Addr()}
	ctrl.Size = 40
	a.Inject(ctrl)
	s.RunFor(time.Millisecond)
	if demoted {
		t.Fatal("control-sized packet demoted the flow")
	}

	data := net.AllocPacket()
	data.Flow = FlowKey{Src: a.Addr(), Dst: b.Addr()}
	data.Size = MTU
	a.Inject(data)
	s.RunFor(time.Millisecond)
	if !demoted {
		t.Fatal("data-sized packet on a saturated NIC did not demote")
	}
}

func TestFlowModeNoContentionDemotion(t *testing.T) {
	// Pure flow fidelity never demotes on contention — only on
	// impairment/down/qdisc — so bulk stays analytic regardless of
	// packet crosstalk.
	s, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	demoted := false
	e.Start(path, 1_000_000, nil, func() { demoted = true })
	s.RunFor(10 * time.Millisecond)
	data := net.AllocPacket()
	data.Flow = FlowKey{Src: a.Addr(), Dst: b.Addr()}
	data.Size = MTU
	a.Inject(data)
	s.RunFor(time.Millisecond)
	if demoted {
		t.Fatal("flow fidelity demoted on packet contention")
	}
}

func TestSerializationCoupling(t *testing.T) {
	// A NIC carrying fluid serializes packets at the residual rate.
	// Saturated link => floor of 1% of line rate: a 1500B packet on
	// 8 Mbps floors at 80 kbps = 1e4 B/s => 150ms instead of 1.5ms.
	_, net, a, _, b := flowNet(t, FidelityFlow, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	nic := path[0]
	clean := nic.serializeDelay(MTU)
	if clean != nic.Link().serializationDelay(MTU) {
		t.Fatalf("no-fluid serializeDelay %v != link formula %v", clean, nic.Link().serializationDelay(MTU))
	}
	id := net.FlowEngine().Start(path, 10_000_000, nil, nil)
	net.FlowEngine().Rate(id) // force the deferred recompute so the coupling is visible now
	coupled := nic.serializeDelay(MTU)
	if coupled != 100*clean {
		t.Fatalf("saturated serializeDelay = %v, want 100x clean (%v)", coupled, 100*clean)
	}
}

func TestPathEligibility(t *testing.T) {
	_, net, a, _, b := flowNet(t, FidelityHybrid, 8*Mbps, 8*Mbps)
	path, _ := resolve(t, net, a, b)
	e := net.FlowEngine()
	if !e.PathEligible(path) {
		t.Fatal("clean path should be eligible")
	}
	path[1].Peer().Impair(Impairment{JitterMax: time.Millisecond, Seed: 3})
	if e.PathEligible(path) {
		t.Fatal("reverse-impaired path should be ineligible")
	}
	path[1].Peer().Impair(Impairment{})
	if !e.PathEligible(path) {
		t.Fatal("clearing the impairment should restore eligibility")
	}
	path[0].SetQdisc(NewFIFO(4096))
	if !e.PathEligible(path) {
		t.Fatal("a plain FIFO replacement stays eligible")
	}
	path[0].Link().SetDown(true)
	if e.PathEligible(path) {
		t.Fatal("a down link is ineligible")
	}
}

func TestFlowEventCount(t *testing.T) {
	// The point of the engine: a bulk transfer is O(1) events instead
	// of O(bytes/MSS). 10 MB over packet fidelity would be ~7000 data
	// packets plus ACKs; fluid is a handful of scheduler steps.
	s, net, a, _, b := flowNet(t, FidelityFlow, 80*Mbps, 80*Mbps)
	path, _ := resolve(t, net, a, b)
	before := s.Steps()
	done := false
	net.FlowEngine().Start(path, 10_000_000, func() { done = true }, nil)
	s.Run()
	if !done {
		t.Fatal("flow did not complete")
	}
	if steps := s.Steps() - before; steps > 10 {
		t.Fatalf("fluid transfer took %d scheduler steps, want O(1)", steps)
	}
}

// TestFidelityString pins the spellings E20 prints in its mode column.
func TestFidelityString(t *testing.T) {
	for f, want := range map[Fidelity]string{FidelityPacket: "packet", FidelityFlow: "flow", FidelityHybrid: "hybrid"} {
		if got := f.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", uint8(f), got, want)
		}
	}
}
