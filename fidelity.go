package meshlayer

import (
	"fmt"
	"sort"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// ---------- E20: engine throughput vs fidelity (hybrid fast path) ----------
//
// E20 measures what the flow-level fast path buys: the same bulk
// workload is simulated under packet, flow, and hybrid fidelity, and
// the cost is reported in *scheduler events* — a deterministic,
// host-independent unit (unlike wall-clock numbers), so the whole
// table is golden-checkable. Two arms:
//
//   - Bulk ladder: 8 client/server pairs across a two-switch spine,
//     16 x 1 MB messages each. All three fidelities run at full scale;
//     flow/hybrid must deliver the same bytes at rate-accurate times
//     for >= 10x fewer events.
//   - 10k-pod fan-in: 100 zones x 100 pods, every zone's 99 senders
//     bulk-transfer to a zone collector. Flow and hybrid run at full
//     scale; packet mode runs at a reduced zone count and its
//     full-scale cost is reported as a linear projection — the point
//     being that packet fidelity cannot cover this topology in CI
//     time, and the fast path can.
//
// Each arm sets its fidelity on the network it builds; a network is
// packet-level otherwise.

// FidelityPoint is one bulk-ladder arm.
type FidelityPoint struct {
	Mode      string        // packet | flow | hybrid
	Steps     uint64        // scheduler events executed
	TotalMB   float64       // application bytes delivered
	EventsMB  float64       // Steps / TotalMB
	Done      time.Duration // simulated time of the last delivery
	MsgP50    time.Duration // per-message transfer time, median
	MsgP99    time.Duration // per-message transfer time, p99
	Delivered int           // messages delivered (must match sent)
	Fluid     uint64        // messages carried by the fluid fast path
	Demoted   uint64        // fluid flows demoted back to packets
	Speedup   float64       // packet events / this mode's events
}

// FidelityScalePoint is one fan-in sweep arm. A Projected row was not
// simulated: its Steps extrapolate a reduced-scale packet run linearly
// in delivered bytes.
type FidelityScalePoint struct {
	Mode      string
	Zones     int
	Pods      int
	Steps     uint64
	TotalMB   float64
	EventsMB  float64
	Done      time.Duration
	Delivered int
	Projected bool
}

// FidelityBench holds both E20 arms.
type FidelityBench struct {
	Bulk  []FidelityPoint
	Scale []FidelityScalePoint
}

// fidelityBulkOnce runs the bulk ladder under one fidelity: pairs
// client/server pairs on opposite sides of a two-switch spine, each
// sending msgs messages of msgBytes.
func fidelityBulkOnce(fid simnet.Fidelity, pairs, msgs, msgBytes int) FidelityPoint {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	net.SetFidelity(fid)
	sw1, sw2 := net.AddNode("sw1"), net.AddNode("sw2")
	net.Connect(sw1, sw2, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 500 * time.Microsecond})
	edge := simnet.LinkConfig{Rate: 1 * simnet.Gbps, Delay: 200 * time.Microsecond}

	delivered := make([][]time.Duration, pairs)
	conns := make([]*transport.Conn, pairs)
	for i := 0; i < pairs; i++ {
		cn := net.AddNode(fmt.Sprintf("c%d", i))
		sn := net.AddNode(fmt.Sprintf("s%d", i))
		net.Connect(cn, sw1, edge)
		net.Connect(sn, sw2, edge)
		ch, sh := transport.NewHost(cn), transport.NewHost(sn)
		sh.Listen(80, func(c *transport.Conn) {
			c.SetOnMessage(func(any, int) {
				delivered[i] = append(delivered[i], s.Now())
			})
		})
		c := ch.Dial(sn.Addr(), 80, transport.Options{})
		for k := 0; k < msgs; k++ {
			c.SendMessage(k, msgBytes)
		}
		conns[i] = c
	}
	s.Run()

	p := FidelityPoint{
		Mode:    fid.String(),
		Steps:   s.Steps(),
		TotalMB: float64(pairs*msgs*msgBytes) / (1 << 20),
	}
	p.EventsMB = float64(p.Steps) / p.TotalMB
	var perMsg []time.Duration
	for i := range delivered {
		prev := time.Duration(0)
		for _, at := range delivered[i] {
			perMsg = append(perMsg, at-prev)
			prev = at
			if at > p.Done {
				p.Done = at
			}
		}
		p.Delivered += len(delivered[i])
	}
	sort.Slice(perMsg, func(a, b int) bool { return perMsg[a] < perMsg[b] })
	p.MsgP50, p.MsgP99 = durQuantile(perMsg, 0.50), durQuantile(perMsg, 0.99)
	for _, c := range conns {
		p.Fluid += c.FluidCompleted()
		p.Demoted += c.FluidDemotions()
	}
	return p
}

// fidelityScaleOnce runs the fan-in sweep under one fidelity: zones
// zones of podsPerZone pods each; pod 0 of every zone collects one
// bulk message from each of its zone-mates. Message sizes are
// staggered by sender index so completions spread out instead of
// collapsing into one simultaneous batch.
func fidelityScaleOnce(fid simnet.Fidelity, zones, podsPerZone int) FidelityScalePoint {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	net.SetFidelity(fid)
	cl := cluster.New(net)

	const baseBytes = 128 << 10
	const stepBytes = 2 << 10
	out := FidelityScalePoint{
		Mode:  fid.String(),
		Zones: zones,
		Pods:  zones * podsPerZone,
	}
	delivered := 0
	var last time.Duration
	var totalBytes int64
	for z := 0; z < zones; z++ {
		zone := fmt.Sprintf("z%03d", z)
		coll := cl.AddPod(cluster.PodSpec{Name: "coll-" + zone, Zone: zone})
		coll.Host().Listen(9000, func(c *transport.Conn) {
			c.SetOnMessage(func(any, int) {
				delivered++
				last = s.Now()
			})
		})
		for i := 1; i < podsPerZone; i++ {
			p := cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("send-%s-%d", zone, i), Zone: zone})
			size := baseBytes + i*stepBytes
			p.Host().Dial(coll.Addr(), 9000, transport.Options{}).SendMessage(i, size)
			totalBytes += int64(size)
		}
	}
	s.Run()

	out.Steps = s.Steps()
	out.TotalMB = float64(totalBytes) / (1 << 20)
	out.EventsMB = float64(out.Steps) / out.TotalMB
	out.Done = last
	out.Delivered = delivered
	return out
}

// RunFidelityBench runs both E20 arms across the fidelities. zones and
// podsPerZone size the fan-in sweep; <= 0 selects the full 100 x 100.
// Packet mode runs the fan-in at a fixed reduced zone count and is
// reported as a projection at full scale.
func RunFidelityBench(zones, podsPerZone int) FidelityBench {
	zones = orDefault(zones, 100)
	podsPerZone = orDefault(podsPerZone, 100)
	packetZones := 4
	if packetZones > zones {
		packetZones = zones
	}

	const pairs, msgs, msgBytes = 8, 16, 1 << 20
	var b FidelityBench
	b.Bulk = make([]FidelityPoint, 3)
	b.Scale = make([]FidelityScalePoint, 3, 4)
	fids := []simnet.Fidelity{simnet.FidelityPacket, simnet.FidelityFlow, simnet.FidelityHybrid}
	// Six independent sims: three bulk arms plus the packet-reduced,
	// flow, and hybrid fan-in arms. Fidelity is per-network state, so
	// they parallelize like any other sweep.
	runIndexed(6, func(k int) {
		if k < 3 {
			b.Bulk[k] = fidelityBulkOnce(fids[k], pairs, msgs, msgBytes)
			return
		}
		switch f := fids[k-3]; f {
		case simnet.FidelityPacket:
			b.Scale[k-3] = fidelityScaleOnce(f, packetZones, podsPerZone)
		default:
			b.Scale[k-3] = fidelityScaleOnce(f, zones, podsPerZone)
		}
	})
	for i := range b.Bulk {
		b.Bulk[i].Speedup = float64(b.Bulk[0].Steps) / float64(b.Bulk[i].Steps)
	}
	// Project the reduced packet run to full scale, linearly in bytes.
	if full := b.Scale[1]; b.Scale[0].Zones < full.Zones {
		proj := FidelityScalePoint{
			Mode:      "packet",
			Zones:     full.Zones,
			Pods:      full.Pods,
			TotalMB:   full.TotalMB,
			EventsMB:  b.Scale[0].EventsMB,
			Steps:     uint64(b.Scale[0].EventsMB * full.TotalMB),
			Projected: true,
		}
		b.Scale = append(b.Scale, proj)
	}
	return b
}

// durQuantile returns the q-quantile of an ascending slice.
func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// FormatFidelity renders the E20 tables.
func FormatFidelity(b FidelityBench) string {
	t := newTable("fidelity", "events", "events/MB", "speedup", "done",
		"msg p50", "msg p99", "delivered", "fluid", "demoted")
	for _, p := range b.Bulk {
		t.row(p.Mode, fmt.Sprint(p.Steps), fmt.Sprintf("%.0f", p.EventsMB),
			fmt.Sprintf("%.1fx", p.Speedup), ms(p.Done), ms(p.MsgP50), ms(p.MsgP99),
			fmt.Sprint(p.Delivered), fmt.Sprint(p.Fluid), fmt.Sprint(p.Demoted))
	}
	out := "E20 — engine throughput vs fidelity (deterministic event counts)\n"
	out += fmt.Sprintf("bulk ladder: 8 pairs x 16 x 1 MB over a shared spine (%.0f MB)\n", b.Bulk[0].TotalMB)
	out += t.String()

	t2 := newTable("fidelity", "zones", "pods", "events", "events/MB", "done", "delivered")
	for _, p := range b.Scale {
		mode, done, delivered := p.Mode, ms(p.Done), fmt.Sprint(p.Delivered)
		if p.Projected {
			mode += " (projected)"
			done, delivered = "-", "-"
		}
		t2.row(mode, fmt.Sprint(p.Zones), fmt.Sprint(p.Pods),
			fmt.Sprint(p.Steps), fmt.Sprintf("%.0f", p.EventsMB), done, delivered)
	}
	out += "\nfan-in sweep: per-zone 99->1 bulk collection; packet mode simulated at reduced scale, projected to full\n"
	out += t2.String()
	return out
}
