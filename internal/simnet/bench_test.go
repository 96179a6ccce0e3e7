package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// BenchmarkScheduler measures the event-loop hot path: a steady
// population of outstanding timers, each firing and rescheduling
// itself, so every iteration is one schedule + one heap pop + one
// dispatch. This is the engine cost under every experiment in the
// repo; events/sec here is the ceiling on simulated traffic.
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	const population = 1024
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < b.N {
			scheduled++
			s.After(time.Duration(scheduled%13+1)*time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < population && scheduled < b.N; i++ {
		scheduled++
		s.After(time.Duration(i%13+1)*time.Microsecond, tick)
	}
	s.Run()
	b.StopTimer()
	if got := s.Steps(); got != uint64(scheduled) {
		b.Fatalf("executed %d events, scheduled %d", got, scheduled)
	}
}

// BenchmarkSchedulerCancel measures timer churn: schedule + cancel
// without firing, the retry-timer pattern that dominates chaos runs.
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Duration(i%977+1)*time.Microsecond, fn)
		t.Cancel()
		if i%1024 == 1023 {
			// Drain occasionally so the heap reflects steady-state
			// cancelled-event handling, not unbounded growth.
			s.RunFor(time.Microsecond)
		}
	}
	b.StopTimer()
	s.Run()
}

// BenchmarkSchedulerRearm measures the retransmission-timer pattern:
// 64 timers, each pushed later on every step and never firing, beside
// one ticking event. Every iteration is one dispatch plus one re-arm;
// a re-armed timer's stale heap entry is re-keyed only when it surfaces.
func BenchmarkSchedulerRearm(b *testing.B) {
	s := NewScheduler()
	const timers, rto = 64, 200 * time.Millisecond
	var rtx [timers]Timer
	idle := func() { b.Fatal("a re-armed timer fired") }
	for i := range rtx {
		rtx[i] = s.After(rto, idle)
	}
	n := 0
	var tick func()
	tick = func() {
		rtx[n%timers] = s.Rearm(rtx[n%timers], s.Now()+rto, idle)
		if n++; n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(time.Microsecond, tick)
	s.RunUntil(time.Duration(b.N) * time.Microsecond)
	b.StopTimer()
	if s.Steps() != uint64(b.N) {
		b.Fatalf("executed %d events, want %d", s.Steps(), b.N)
	}
}

// BenchmarkPacketPath measures the packet hot path end to end: inject
// -> route -> qdisc -> serialize at line rate -> propagate -> deliver,
// with a fixed window of packets in flight over one 15 Gbps link.
func BenchmarkPacketPath(b *testing.B) {
	s := NewScheduler()
	net := NewNetwork(s)
	na, nb := net.AddNode("a"), net.AddNode("b")
	net.Connect(na, nb, LinkConfig{Rate: 15 * Gbps, Delay: 10 * time.Microsecond})
	flow := FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	const window = 64
	sent, delivered := 0, 0
	var send func()
	send = func() {
		for sent < b.N && sent-delivered < window {
			p := net.AllocPacket()
			p.Flow = flow
			p.Size = MTU
			na.Inject(p)
			sent++
		}
	}
	nb.SetDeliver(func(p *Packet) { delivered++; send() })
	b.ReportAllocs()
	b.ResetTimer()
	send()
	s.Run()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N)
	}
}

// BenchmarkPacketPathBesideTimers is BenchmarkPacketPath beside the
// timers a packet-level workload keeps pending: mixed_paper's heap
// holds about 20 cancelled timers (disarmed retransmission timeouts and
// settled request deadlines, kept until their deadlines surface) and 10
// idle ones that ACKs keep pushing later. Once per window of deliveries
// a deadline 20 windows out is armed and cancelled at once, and every
// delivery re-arms one of the idle timers a second out.
// BenchmarkPacketPath holds no timers and the scheduler benchmarks no
// packets, so only this one shows what the wire lane saves.
func BenchmarkPacketPathBesideTimers(b *testing.B) {
	s := NewScheduler()
	net := NewNetwork(s)
	na, nb := net.AddNode("a"), net.AddNode("b")
	net.Connect(na, nb, LinkConfig{Rate: 15 * Gbps, Delay: 10 * time.Microsecond})
	flow := FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	const window, cancelled, idle = 64, 20, 10
	// A 1,500 B packet serialises in 800 ns at 15 Gbps, so one arrives
	// every 800 ns.
	const deadline = cancelled * window * 800 * time.Nanosecond
	never := func() { b.Fatal("a cancelled or idle timer fired") }
	var rtx [idle]Timer
	for i := range rtx {
		rtx[i] = s.After(time.Second, never)
	}
	sent, delivered := 0, 0
	var send func()
	send = func() {
		for sent < b.N && sent-delivered < window {
			p := net.AllocPacket()
			p.Flow = flow
			p.Size = MTU
			na.Inject(p)
			sent++
		}
	}
	nb.SetDeliver(func(p *Packet) {
		delivered++
		if delivered%window == 0 {
			s.After(deadline, never).Cancel()
		}
		k := delivered % idle
		rtx[k] = s.Rearm(rtx[k], s.Now()+time.Second, never)
		if delivered == b.N {
			for _, t := range rtx {
				t.Cancel()
			}
		}
		send()
	})
	b.ReportAllocs()
	b.ResetTimer()
	send()
	s.Run()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N)
	}
}

// BenchmarkFlowScheduler measures the flow-engine hot path: a steady
// population of fluid flows arriving, sharing a two-hop path, and
// completing, so every iteration is one Start + its share of the
// batched recompute + one completion dispatch. ns/op here is the cost
// of simulating one entire bulk transfer under flow fidelity — compare
// against BenchmarkPacketPath times the packets such a transfer needs.
func BenchmarkFlowScheduler(b *testing.B) {
	s := NewScheduler()
	net := NewNetwork(s)
	net.SetFidelity(FidelityFlow)
	na, sw, nb := net.AddNode("a"), net.AddNode("sw"), net.AddNode("b")
	net.Connect(na, sw, LinkConfig{Rate: 10 * Gbps, Delay: 10 * time.Microsecond})
	net.Connect(sw, nb, LinkConfig{Rate: 10 * Gbps, Delay: 10 * time.Microsecond})
	eng := net.FlowEngine()
	path, _, ok := eng.ResolvePath(na, FlowKey{Src: na.Addr(), Dst: nb.Addr()})
	if !ok {
		b.Fatal("no path")
	}
	const population = 16
	started := 0
	var onDone func()
	start := func() {
		if started < b.N {
			started++
			eng.Start(path, 1<<20, onDone, nil)
		}
	}
	onDone = start
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < population && started < b.N; i++ {
		start()
	}
	s.Run()
	b.StopTimer()
	if got := eng.Stats().Completed; got != uint64(b.N) {
		b.Fatalf("completed %d flows, want %d", got, b.N)
	}
}

// BenchmarkFlowFanIn is BenchmarkFlowScheduler's many-component twin:
// 40 disjoint stars of 99 senders -> bridge -> collector, the bench
// bulk_fanin shape. One op starts all 3960 flows at one instant with
// seeded sizes, so that no two completions coincide, and drains them:
// each completion re-shares a component of at most 98 flows while the
// other 39, by then at 39 different fill levels, stand still.
// ns/completion is what a departure costs when the fleet is large and
// its component is small.
func BenchmarkFlowFanIn(b *testing.B) {
	const zones, senders = 40, 99
	s := NewScheduler()
	net := NewNetwork(s)
	net.SetFidelity(FidelityFlow)
	eng := net.FlowEngine()
	cfg := LinkConfig{Rate: 10 * Gbps, Delay: 10 * time.Microsecond}
	var paths [][]*NIC
	for z := 0; z < zones; z++ {
		bridge, coll := net.AddNode(fmt.Sprintf("br%d", z)), net.AddNode(fmt.Sprintf("coll%d", z))
		net.Connect(bridge, coll, cfg)
		for i := 0; i < senders; i++ {
			src := net.AddNode(fmt.Sprintf("send%d-%d", z, i))
			net.Connect(src, bridge, cfg)
			path, _, ok := eng.ResolvePath(src, FlowKey{Src: src.Addr(), Dst: coll.Addr()})
			if !ok || len(path) != 2 {
				b.Fatalf("path %s -> %s: %v", src.Name(), coll.Name(), path)
			}
			paths = append(paths, path)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			eng.Start(path, 1<<20+rng.Int63n(1<<20), nil, nil)
		}
		s.Run()
	}
	b.StopTimer()
	done := eng.Stats().Completed
	if done != uint64(b.N*len(paths)) {
		b.Fatalf("completed %d flows, want %d", done, b.N*len(paths))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done), "ns/completion")
}

// BenchmarkHybridPacketPath measures the packet hot path with the
// hybrid flow engine armed and fluid resident on the link: every
// packet pays the residual-rate serialization coupling plus the
// contention sensor. The delta against BenchmarkPacketPath is the
// per-packet cost of hybrid fidelity.
func BenchmarkHybridPacketPath(b *testing.B) {
	s := NewScheduler()
	net := NewNetwork(s)
	net.SetFidelity(FidelityHybrid)
	na, nb := net.AddNode("a"), net.AddNode("b")
	nc := net.AddNode("c")
	net.Connect(na, nb, LinkConfig{Rate: 15 * Gbps, Delay: 10 * time.Microsecond})
	// A long-lived fluid flow crosses the benchmark link but is
	// bottlenecked by its 1 Gbps first hop, keeping its share below the
	// demotion threshold while exercising the coupled serialization.
	net.Connect(nc, na, LinkConfig{Rate: 1 * Gbps, Delay: 10 * time.Microsecond})
	eng := net.FlowEngine()
	fpath, _, ok := eng.ResolvePath(nc, FlowKey{Src: nc.Addr(), Dst: nb.Addr()})
	if !ok {
		b.Fatal("no fluid path")
	}
	eng.Start(fpath, 1<<50, nil, nil)
	flow := FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	// 16-packet window: a deeper burst would cross DemoteBacklog and
	// evict the resident flow mid-benchmark.
	const window = 16
	sent, delivered := 0, 0
	var send func()
	send = func() {
		for sent < b.N && sent-delivered < window {
			p := net.AllocPacket()
			p.Flow = flow
			p.Size = MTU
			na.Inject(p)
			sent++
		}
	}
	nb.SetDeliver(func(p *Packet) { delivered++; send() })
	b.ReportAllocs()
	b.ResetTimer()
	send()
	s.Run()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N)
	}
	if eng.Stats().Demoted != 0 {
		b.Fatal("fluid flow demoted: the benchmark must measure coexistence, not demotion")
	}
}

// BenchmarkRouteLeaf measures first-use routing on a star-of-stars: 40
// bridges of 50 single-homed pods under one root, routes invalidated,
// then every pod resolving its next hop toward a pod on another
// bridge. Only the 40 bridges build a row; a pod reads its bridge's.
// One op is the whole 2000-pod sweep.
func BenchmarkRouteLeaf(b *testing.B) {
	net := NewNetwork(NewScheduler())
	root := net.AddNode("root")
	cfg := LinkConfig{Rate: Gbps}
	var pods []*Node
	for z := 0; z < 40; z++ {
		bridge := net.AddNode(fmt.Sprintf("bridge-%d", z))
		net.Connect(bridge, root, cfg)
		for i := 0; i < 50; i++ {
			pod := net.AddNode(fmt.Sprintf("pod-%d-%d", z, i))
			net.Connect(pod, bridge, cfg)
			pods = append(pods, pod)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.dirty = true
		for j, src := range pods {
			dst := pods[(j+50)%len(pods)]
			if net.nextHop(src, dst.addr) != src.nics[0] {
				b.Fatalf("%s has no route to %s", src, dst)
			}
		}
	}
}

// BenchmarkRouteGrowth measures pod attach the way bulk_fanin and E20
// build their fleets: 40 bridges under one root, 100 pods each, every
// pod attached and then resolving its next hop toward its bridge's
// first pod. One op grows the whole 4 000-pod fleet (node names are
// made beforehand); ns/pod and allocs/pod are its cost per pod.
func BenchmarkRouteGrowth(b *testing.B) {
	const zones, pods = 40, 100
	names := fleetNames(zones, pods)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		podFleet(b, names)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(b.N * zones * pods)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pod")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/pod")
}
