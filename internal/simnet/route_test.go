package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refDijkstra is the routing reference: one full row per source, built
// the way every row was built before single-homed nodes lost theirs —
// container/heap over boxed nodeDist values. nextHop must agree with
// it for every pair, leaf or not, which pins both the leaf rule and
// the typed heap's tie-breaking between equal-cost first hops.
func refDijkstra(n *Network, src *Node) []*NIC {
	dist := make([]float64, len(n.nodes))
	firstHop := make([]*NIC, len(n.nodes))
	done := make([]bool, len(n.nodes))
	for i := range dist {
		dist[i] = math.MaxFloat64
	}
	dist[src.id] = 0
	pq := &refQueue{}
	heap.Push(pq, nodeDist{src.id, 0})
	for pq.Len() > 0 {
		nd := heap.Pop(pq).(nodeDist)
		if done[nd.id] {
			continue
		}
		done[nd.id] = true
		cur := n.nodes[nd.id]
		for _, nic := range cur.nics {
			next := nic.peer.node
			w := nic.link.weight
			if nd.dist+w < dist[next.id] {
				dist[next.id] = nd.dist + w
				if cur == src {
					firstHop[next.id] = nic
				} else {
					firstHop[next.id] = firstHop[cur.id]
				}
				heap.Push(pq, nodeDist{next.id, dist[next.id]})
			}
		}
	}
	return firstHop
}

type refQueue []nodeDist

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(nodeDist)) }
func (q *refQueue) Pop() (x any)      { old := *q; n := len(old); x = old[n-1]; *q = old[:n-1]; return }

// randomTopology builds a few islands. Each island is a small random
// core of switches (possibly a single one, possibly with redundant and
// re-weighted links so equal-cost paths exist), single-homed leaves
// hanging off the core, a few multi-homed pods, and sometimes a leaf
// with a second NIC added later. One extra island is a bare leaf-leaf
// pair and one a lone node with no link at all.
func randomTopology(rng *rand.Rand) *Network {
	net := NewNetwork(NewScheduler())
	cfg := LinkConfig{Rate: Gbps}
	weights := []float64{1, 1, 1, 2, 3}
	connect := func(a, b *Node) {
		net.Connect(a, b, cfg).SetWeight(weights[rng.Intn(len(weights))])
	}
	id := 0
	node := func(kind string) *Node {
		id++
		return net.AddNode(fmt.Sprintf("%s%d", kind, id))
	}
	for island := 0; island < 1+rng.Intn(3); island++ {
		core := []*Node{node("sw")}
		for i := rng.Intn(5); i > 0; i-- {
			sw := node("sw")
			connect(sw, core[rng.Intn(len(core))])
			core = append(core, sw)
		}
		for i := rng.Intn(4); i > 0 && len(core) > 1; i-- { // redundant core links
			a, b := core[rng.Intn(len(core))], core[rng.Intn(len(core))]
			if a != b {
				connect(a, b)
			}
		}
		var leaves []*Node
		for i := rng.Intn(8); i > 0; i-- {
			leaf := node("leaf")
			connect(leaf, core[rng.Intn(len(core))])
			leaves = append(leaves, leaf)
		}
		for i := rng.Intn(3); i > 0; i-- { // multi-homed pods
			pod := node("multi")
			connect(pod, core[rng.Intn(len(core))])
			connect(pod, core[rng.Intn(len(core))])
		}
		if len(leaves) > 1 && rng.Intn(2) == 0 { // a direct pod-to-pod link
			connect(leaves[0], leaves[1])
		}
		if len(leaves) > 0 && rng.Intn(2) == 0 { // a leaf hanging off a leaf
			connect(node("leaf"), leaves[len(leaves)-1])
		}
	}
	connect(node("pair"), node("pair"))
	node("lone")
	return net
}

// TestNextHopMatchesReference: for every ordered pair of nodes,
// including dst == src, plus an address nobody owns, nextHop equals
// the reference row — before and after the topology grows.
func TestNextHopMatchesReference(t *testing.T) {
	check := func(seed int64, net *Network, when string) {
		t.Helper()
		for _, src := range net.nodes {
			ref := refDijkstra(net, src)
			for _, dst := range net.nodes {
				if got, want := net.nextHop(src, dst.addr), ref[dst.id]; got != want {
					t.Fatalf("seed %d %s: nextHop(%s, %s) = %v, reference %v", seed, when, src, dst, nicName(got), nicName(want))
				}
			}
			if got := net.nextHop(src, AddrFromOctets(192, 168, 0, 1)); got != nil {
				t.Fatalf("seed %d %s: nextHop(%s, unknown) = %v, want nil", seed, when, src, nicName(got))
			}
		}
	}
	leaves := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randomTopology(rng)
		check(seed, net, "built")
		// Growth invalidates: a leaf becomes multi-homed, an island is
		// joined to another, a new leaf appears.
		a, b := net.nodes[rng.Intn(len(net.nodes))], net.nodes[rng.Intn(len(net.nodes))]
		if a != b {
			net.Connect(a, b, LinkConfig{Rate: Gbps})
		}
		anchor := net.nodes[rng.Intn(len(net.nodes))]
		net.Connect(net.AddNode("late"), anchor, LinkConfig{Rate: Gbps})
		check(seed, net, "grown")
		net.ComputeRoutes()
		check(seed, net, "eager")
		for _, n := range net.nodes {
			if len(n.nics) == 1 {
				leaves++
				if net.routes[n.id] != nil {
					t.Fatalf("seed %d: single-homed %s got a row", seed, n)
				}
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no topology had a single-homed node")
	}
}

func nicName(nic *NIC) string {
	if nic == nil {
		return "nil"
	}
	return nic.node.name + "->" + nic.peer.node.name
}

// TestUnroutableDropsAtSource: a packet for a destination the source
// cannot reach is dropped where table routing always dropped it — at
// the source, counted once as noRoute there, reported once to OnDrop
// with no NIC, never put on a wire — whether the source is a leaf (no
// row) or multi-homed (row).
func TestUnroutableDropsAtSource(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		net := randomTopology(rand.New(rand.NewSource(seed)))
		drops := 0
		net.OnDrop(func(_ *Packet, at *NIC) {
			if at != nil {
				t.Fatalf("seed %d: no-route drop attributed to a queue", seed)
			}
			drops++
		})
		want := make(map[*Node]uint64)
		injected := 0
		for _, src := range net.nodes {
			ref := refDijkstra(net, src)
			for _, dst := range net.nodes {
				if dst != src && ref[dst.id] == nil {
					src.Inject(mkPacket(net, src, dst, 100))
					want[src]++
					injected++
				}
			}
		}
		net.Scheduler().Run()
		if injected == 0 {
			t.Fatalf("seed %d: topology has no unroutable pair", seed)
		}
		if drops != injected {
			t.Fatalf("seed %d: %d drops for %d unroutable packets", seed, drops, injected)
		}
		for _, n := range net.nodes {
			if n.noRoute != want[n] || n.forwarded != 0 || n.ttlDrops != 0 || n.delivered != 0 {
				t.Fatalf("seed %d: %s noRoute=%d (want %d) forwarded=%d ttlDrops=%d delivered=%d",
					seed, n, n.noRoute, want[n], n.forwarded, n.ttlDrops, n.delivered)
			}
		}
	}
}

// TestDijkstraReusesScratch: after the first row, building another
// allocates the row and nothing else.
func TestDijkstraReusesScratch(t *testing.T) {
	net := randomTopology(rand.New(rand.NewSource(3)))
	src := net.nodes[0]
	net.dijkstra(src)
	if n := testing.AllocsPerRun(50, func() { net.dijkstra(src) }); n != 1 {
		t.Fatalf("dijkstra allocates %v times per row, want 1", n)
	}
}
