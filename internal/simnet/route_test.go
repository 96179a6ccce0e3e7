package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refDijkstra is the routing reference: one full row per source, built
// the way every row was built before rows were confined to the transit
// graph and before Dijkstra gave way to a breadth-first search — every
// node searched through, leaves included, at unit link cost, with
// container/heap over boxed nodeDist values in (dist, id) order.
// nextHop must agree with it for every pair, leaf or not, which proves
// that leaving leaves out of the search is exact and pins bfs's
// tie-breaking between equal-cost first hops: a search that visits a
// layer in any order but node-id order picks other first hops.
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
			if nd.dist+1 < dist[next.id] {
				dist[next.id] = nd.dist + 1
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

type nodeDist struct {
	id   int
	dist float64
}

type refQueue []nodeDist

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].dist < q[j].dist || q[i].dist == q[j].dist && q[i].id < q[j].id
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(nodeDist)) }
func (q *refQueue) Pop() (x any) { old := *q; n := len(old); x = old[n-1]; *q = old[:n-1]; return }

// randomTopology builds a few islands. Each island is a small random
// core of switches (possibly a single one, possibly with redundant
// links so equal-cost paths exist), single-homed leaves hanging off the
// core, a few multi-homed pods, and sometimes a leaf with a second NIC
// added later. One extra island is a bare leaf-leaf pair and one a
// lone node with no link at all.
func randomTopology(rng *rand.Rand) *Network {
	net := NewNetwork(NewScheduler())
	cfg := LinkConfig{Rate: Gbps}
	connect := func(a, b *Node) { net.Connect(a, b, cfg) }
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

// matchReference checks nextHop against the reference row for every
// ordered pair of nodes, including dst == src, plus an address nobody
// owns.
func matchReference(t *testing.T, net *Network, what string) {
	t.Helper()
	for _, src := range net.nodes {
		ref := refDijkstra(net, src)
		for _, dst := range net.nodes {
			if got, want := net.nextHop(src, dst.addr), ref[dst.id]; got != want {
				t.Fatalf("%s: nextHop(%s, %s) = %v, reference %v", what, src, dst, nicName(got), nicName(want))
			}
		}
		if got := net.nextHop(src, AddrFromOctets(192, 168, 0, 1)); got != nil {
			t.Fatalf("%s: nextHop(%s, unknown) = %v, want nil", what, src, nicName(got))
		}
	}
}

// TestNextHopMatchesReference: nextHop equals the reference row for
// every pair before and after the topology grows, and only transit
// nodes ever get a row.
func TestNextHopMatchesReference(t *testing.T) {
	leaves := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randomTopology(rng)
		matchReference(t, net, fmt.Sprintf("seed %d built", seed))
		// Growth invalidates: a leaf becomes multi-homed, an island is
		// joined to another, a new leaf appears.
		a, b := net.nodes[rng.Intn(len(net.nodes))], net.nodes[rng.Intn(len(net.nodes))]
		if a != b {
			net.Connect(a, b, LinkConfig{Rate: Gbps})
		}
		anchor := net.nodes[rng.Intn(len(net.nodes))]
		net.Connect(net.AddNode("late"), anchor, LinkConfig{Rate: Gbps})
		matchReference(t, net, fmt.Sprintf("seed %d grown", seed))
		for _, n := range net.nodes {
			if len(n.nics) == 1 {
				leaves++
			}
			if len(n.nics) < 2 && n.id < len(net.routes) && net.routes[n.id] != nil {
				t.Fatalf("seed %d: %s with %d NICs got a row", seed, n, len(n.nics))
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no topology had a single-homed node")
	}
}

// rowsRebuilt counts the rows of a routes snapshot that net no longer
// holds as the same array: each was invalidated and, if read since,
// rebuilt.
func rowsRebuilt(net *Network, before [][]*NIC) int {
	k := 0
	for i, r := range before {
		if r != nil && (i >= len(net.routes) || net.routes[i] == nil || &net.routes[i][0] != &r[0]) {
			k++
		}
	}
	return k
}

// TestNextHopUnderGrowth grows random topologies one mutation at a time
// without ever recomputing routes, and after every step checks every
// ordered pair against the reference — so a row that survives a change
// it should not have survived shows up as a wrong hop. The mutations
// that leave the transit graph alone (a leaf onto a transit node, a
// lone node, a lone pair) must in addition rebuild no row.
func TestNextHopUnderGrowth(t *testing.T) {
	cfg := LinkConfig{Rate: Gbps}
	var (
		net   *Network
		rng   *rand.Rand
		added int
	)
	pick := func(keep func(*Node) bool) *Node {
		var c []*Node
		for _, n := range net.nodes {
			if keep(n) {
				c = append(c, n)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[rng.Intn(len(c))]
	}
	transit := func(n *Node) bool { return len(n.nics) >= 2 }
	leaf := func(n *Node) bool { return len(n.nics) == 1 }
	grow := func() *Node {
		added++
		return net.AddNode(fmt.Sprintf("g%d", added))
	}
	// Each mutation reports whether the topology offered a place for it.
	mutations := []struct {
		name  string
		clean bool
		apply func() bool
	}{
		{"leaf onto a transit node", true, func() bool {
			anchor := pick(transit)
			if anchor != nil {
				net.Connect(grow(), anchor, cfg)
			}
			return anchor != nil
		}},
		{"leaf onto a leaf", false, func() bool {
			anchor := pick(leaf)
			if anchor != nil {
				net.Connect(grow(), anchor, cfg)
			}
			return anchor != nil
		}},
		{"lone node", true, func() bool { grow(); return true }},
		{"lone pair", true, func() bool { net.Connect(grow(), grow(), cfg); return true }},
		{"second NIC on a leaf", false, func() bool {
			a := pick(leaf)
			if a == nil {
				return false
			}
			net.Connect(a, pick(func(n *Node) bool { return n != a }), cfg)
			return true
		}},
		{"transit-transit link", false, func() bool {
			a := pick(transit)
			b := pick(func(n *Node) bool { return n != a && transit(n) })
			if b != nil {
				net.Connect(a, b, cfg)
			}
			return b != nil
		}},
	}
	applied := make([]int, len(mutations))
	kept := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng = rand.New(rand.NewSource(seed))
		net, added = randomTopology(rng), 0
		matchReference(t, net, fmt.Sprintf("seed %d built", seed))
		for step, i := range append(rng.Perm(len(mutations)), rng.Perm(len(mutations))...) {
			m := mutations[i]
			before := append([][]*NIC(nil), net.routes...)
			if !m.apply() {
				continue
			}
			applied[i]++
			matchReference(t, net, fmt.Sprintf("seed %d step %d (%s)", seed, step, m.name))
			if !m.clean {
				continue
			}
			if k := rowsRebuilt(net, before); k != 0 {
				t.Fatalf("seed %d step %d (%s): %d rows rebuilt, want 0", seed, step, m.name, k)
			}
			for _, r := range before {
				if r != nil {
					kept++
				}
			}
		}
	}
	for i, m := range mutations {
		if applied[i] == 0 {
			t.Errorf("mutation %q never applied", m.name)
		}
	}
	if kept == 0 {
		t.Fatal("no clean mutation had a row to keep")
	}
}

// podFleet grows bulk_fanin's shape the way cluster.AddZone and
// cluster.AddPod do: zone bridges hung off a root bridge, and pods
// attached to their bridge one at a time, each resolving its next hop
// toward the zone's first pod (its first Dial's SYN) as soon as it is
// attached. names[z] lists zone z's bridge, then its pods.
func podFleet(tb testing.TB, names [][]string) *Network {
	net := NewNetwork(NewScheduler())
	cfg := LinkConfig{Rate: Gbps}
	root := net.AddNode("root")
	for _, zone := range names {
		bridge := net.AddNode(zone[0])
		net.Connect(bridge, root, cfg)
		first := net.AddNode(zone[1])
		net.Connect(first, bridge, cfg)
		for _, name := range zone[2:] {
			attachPod(tb, net, name, first)
		}
	}
	return net
}

// attachPod hangs a new pod off first's bridge and resolves its next
// hop toward first.
func attachPod(tb testing.TB, net *Network, name string, first *Node) {
	pod := net.AddNode(name)
	net.Connect(pod, first.nics[0].peer.node, LinkConfig{Rate: Gbps})
	if net.nextHop(pod, first.addr) != pod.nics[0] {
		tb.Fatalf("%s has no route to %s", pod, first)
	}
}

// fleetNames names podFleet's nodes: zones bridges, pods pods on each.
func fleetNames(zones, pods int) [][]string {
	names := make([][]string, zones)
	for z := range names {
		names[z] = append(names[z], fmt.Sprintf("bridge-%d", z))
		for i := 0; i < pods; i++ {
			names[z] = append(names[z], fmt.Sprintf("pod-%d-%d", z, i))
		}
	}
	return names
}

// buildRows builds every transit node's row up front, as routing would
// on first use.
func buildRows(net *Network) {
	net.invalidateRoutes()
	for _, n := range net.nodes {
		if len(n.nics) >= 2 {
			net.row(n)
		}
	}
}

// TestPodAttachCostIndependentOfFleet is the routing twin of mesh's
// TestTopologyFlipCostIndependentOfFleet: attaching a pod to a bridge
// and routing from it keeps every row (no search) and allocates the
// same number of times at 200 and at 2 000 pods.
func TestPodAttachCostIndependentOfFleet(t *testing.T) {
	const runs = 20
	allocs := func(pods int) float64 {
		net := podFleet(t, fleetNames(2, pods/2))
		buildRows(net)
		before := append([][]*NIC(nil), net.routes...)
		first := net.Node("pod-0-0")
		extra := make([]string, runs+1) // AllocsPerRun adds a warm-up run
		for i := range extra {
			extra[i] = fmt.Sprintf("extra-%d", i)
		}
		k := 0
		n := testing.AllocsPerRun(runs, func() {
			attachPod(t, net, extra[k], first)
			k++
		})
		if r := rowsRebuilt(net, before); r != 0 {
			t.Fatalf("%d pods: attaching %d more rebuilt %d rows, want 0", pods, k, r)
		}
		return n
	}
	small, large := allocs(200), allocs(2000)
	if small != large {
		t.Fatalf("attaching a pod allocates %v times at 200 pods and %v at 2000: per-pod routing work grew with the fleet", small, large)
	}
	t.Logf("pod attach: %v allocs at both sizes", small)
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

// TestDijkstraReusesScratch keeps its name from the search bfs
// replaced: after the first row, building another allocates the row
// and nothing else.
func TestDijkstraReusesScratch(t *testing.T) {
	net := randomTopology(rand.New(rand.NewSource(3)))
	src := net.nodes[0]
	net.bfs(src)
	if n := testing.AllocsPerRun(50, func() { net.bfs(src) }); n != 1 {
		t.Fatalf("bfs allocates %v times per row, want 1", n)
	}
}
