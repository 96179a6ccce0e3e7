package simnet

import (
	"fmt"
	"math"
)

// DropFunc observes packets dropped anywhere in the network (queue
// overflow, TTL expiry, no route). The NIC argument is nil for drops not
// attributable to a queue.
type DropFunc func(p *Packet, at *NIC)

// Network owns the topology: nodes, links, and shortest-path routes.
type Network struct {
	sched  *Scheduler
	nodes  []*Node
	links  []*Link
	byAddr map[Addr]*Node
	byName map[string]*Node

	// routes[src][dstID] = egress NIC. Rows are built lazily on first
	// use (see nextHop) and all invalidated together on topology change,
	// so a 10k-node topology never pays for the all-pairs table — and a
	// single-homed node never gets a row at all, it reads its neighbour's.
	routes [][]*NIC
	dirty  bool

	// dist, done and pq are dijkstra's scratch, reused across rows.
	dist []float64
	done []bool
	pq   distHeap

	// fidelity is captured from defaultFidelity at construction; flowEng
	// is non-nil exactly when fidelity is flow or hybrid (see fidelity.go
	// and flow.go).
	fidelity Fidelity
	flowEng  *FlowEngine

	onDrop DropFunc
	pktSeq uint64

	// pktPool recycles Packet structs across the simulation: a packet is
	// returned here at its single terminal point (local delivery or any
	// drop) and reused by the next AllocPacket. The whole simulation is
	// single-threaded on one scheduler, so a plain slice beats sync.Pool.
	pktPool []*Packet

	// ifPool recycles in-flight propagation carriers (see inFlight).
	ifPool []*inFlight
}

// inFlight carries one propagating packet to its receiving NIC without
// allocating a closure per packet: fn is built once when the entry is
// first created and reads its targets from the struct, which the pool
// refills for each flight.
type inFlight struct {
	nic *NIC
	p   *Packet
	fn  func()
}

// allocInFlight returns a carrier whose fn delivers p to nic and then
// recycles the carrier. The carrier frees itself before delivering so
// that sends triggered by the delivery can reuse it immediately.
func (n *Network) allocInFlight(nic *NIC, p *Packet) *inFlight {
	var f *inFlight
	if k := len(n.ifPool); k > 0 {
		f = n.ifPool[k-1]
		n.ifPool = n.ifPool[:k-1]
	} else {
		f = &inFlight{}
		f.fn = func() {
			nic, p := f.nic, f.p
			f.nic, f.p = nil, nil
			n.ifPool = append(n.ifPool, f)
			nic.node.receive(p, nic)
		}
	}
	f.nic, f.p = nic, p //meshvet:allow poolescape in-flight carrier owns the packet until its delivery callback runs
	return f
}

// NewNetwork returns an empty topology bound to the scheduler.
func NewNetwork(s *Scheduler) *Network {
	if s == nil {
		panic("simnet: nil scheduler")
	}
	n := &Network{
		sched:    s,
		byAddr:   make(map[Addr]*Node),
		byName:   make(map[string]*Node),
		fidelity: defaultFidelity,
	}
	if n.fidelity != FidelityPacket {
		n.flowEng = newFlowEngine(n)
	}
	return n
}

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// OnDrop registers a global drop observer.
func (n *Network) OnDrop(fn DropFunc) { n.onDrop = fn }

func (n *Network) notifyDrop(p *Packet, at *NIC) {
	if n.onDrop != nil {
		n.onDrop(p, at)
	}
}

// AddNode creates a node with an auto-assigned address in 10.0.0.0/16.
// Names must be unique.
func (n *Network) AddNode(name string) *Node {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node name %q", name))
	}
	id := len(n.nodes)
	addr := AddrFromOctets(10, 0, byte((id+1)>>8), byte(id+1))
	node := &Node{id: id, name: name, addr: addr, net: n}
	n.nodes = append(n.nodes, node)
	n.byAddr[addr] = node
	n.byName[name] = node
	n.dirty = true
	return node
}

// Node returns the node with the given name, or nil.
func (n *Network) Node(name string) *Node { return n.byName[name] }

// NodeByAddr returns the node owning addr, or nil.
func (n *Network) NodeByAddr(a Addr) *Node { return n.byAddr[a] }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Connect joins two nodes with a full-duplex link.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if cfg.Rate <= 0 {
		panic("simnet: link rate must be positive")
	}
	if a == b {
		panic("simnet: cannot link a node to itself")
	}
	l := &Link{id: len(n.links), cfg: cfg, net: n, weight: 1}
	na := &NIC{node: a, link: l, qdisc: NewFIFO(cfg.QueueBytes)}
	nb := &NIC{node: b, link: l, qdisc: NewFIFO(cfg.QueueBytes)}
	na.peer, nb.peer = nb, na
	l.a, l.b = na, nb
	a.nics = append(a.nics, na)
	b.nics = append(b.nics, nb)
	n.links = append(n.links, l)
	n.dirty = true
	return l
}

// NextPacketID returns a unique packet ID.
func (n *Network) NextPacketID() uint64 {
	n.pktSeq++
	return n.pktSeq
}

// AllocPacket returns a Packet stamped with a fresh unique ID, recycled
// from the network's free list when one is available. The network
// reclaims the packet at its terminal point — local delivery or any
// drop — so callers must not retain it past that event. Fields are
// scrubbed here rather than at reclaim time, which keeps the packet
// readable within the delivery/drop callback that just observed it.
func (n *Network) AllocPacket() *Packet {
	var p *Packet
	if k := len(n.pktPool); k > 0 {
		p = n.pktPool[k-1]
		n.pktPool = n.pktPool[:k-1]
		*p = Packet{}
	} else {
		p = &Packet{}
	}
	p.ID = n.NextPacketID()
	return p
}

// freePacket returns a packet to the free list. Packets constructed
// directly (tests, benchmarks) funnel in here too; that is harmless —
// they simply join the pool.
func (n *Network) freePacket(p *Packet) {
	n.pktPool = append(n.pktPool, p) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}

// ComputeRoutes (re)builds every next-hop row routing reads, using
// Dijkstra with link weights as costs. Routing itself builds rows on
// demand (see nextHop); this eager form remains for callers that want
// the tables up front. Single-homed nodes have no row: nextHop answers
// for them from their neighbour's.
func (n *Network) ComputeRoutes() {
	n.invalidateRoutes()
	for _, src := range n.nodes {
		if len(src.nics) != 1 {
			n.row(src)
		}
	}
}

// invalidateRoutes resets the route table to all-unbuilt rows.
func (n *Network) invalidateRoutes() {
	if cap(n.routes) < len(n.nodes) {
		n.routes = make([][]*NIC, len(n.nodes))
	} else {
		n.routes = n.routes[:len(n.nodes)]
		for i := range n.routes {
			n.routes[i] = nil
		}
	}
	n.dirty = false
}

// nextHop returns from's egress NIC toward dst: nil for an unknown
// address, for from itself, and for a destination from cannot reach.
func (n *Network) nextHop(from *Node, dst Addr) *NIC {
	if n.dirty {
		n.invalidateRoutes()
	}
	dn, ok := n.byAddr[dst]
	if !ok {
		return nil
	}
	if len(from.nics) == 1 {
		// A single-homed node needs no row: every path leaves through its
		// only NIC, so it reaches exactly its neighbour and whatever the
		// neighbour reaches — which is what its own Dijkstra row would say
		// (link weights are finite, and a path from the neighbour back
		// through from only returns to the neighbour, so the neighbour's
		// row is the same with from in the graph). A single-homed neighbour
		// is the other half of an isolated pair and reaches nothing further.
		nic := from.nics[0]
		nb := nic.peer.node
		if dn == from || (dn != nb && (len(nb.nics) == 1 || n.row(nb)[dn.id] == nil)) {
			return nil
		}
		return nic
	}
	return n.row(from)[dn.id]
}

// row returns src's next-hop row, building it on first use.
func (n *Network) row(src *Node) []*NIC {
	r := n.routes[src.id]
	if r == nil {
		r = n.dijkstra(src)
		n.routes[src.id] = r
	}
	return r
}

// dijkstra returns, for each destination node ID, the egress NIC at src.
func (n *Network) dijkstra(src *Node) []*NIC {
	const inf = math.MaxFloat64
	if cap(n.dist) < len(n.nodes) {
		n.dist = make([]float64, len(n.nodes))
		n.done = make([]bool, len(n.nodes))
	}
	dist, done := n.dist[:len(n.nodes)], n.done[:len(n.nodes)]
	for i := range dist {
		dist[i], done[i] = inf, false
	}
	firstHop := make([]*NIC, len(n.nodes))
	dist[src.id] = 0

	pq := n.pq[:0]
	pq.push(nodeDist{src.id, 0})
	for len(pq) > 0 {
		nd := pq.pop()
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
				pq.push(nodeDist{next.id, dist[next.id]})
			}
		}
	}
	n.pq = pq
	return firstHop
}

type nodeDist struct {
	id   int
	dist float64
}

// distHeap is a binary min-heap on dist. push and pop sift exactly as
// container/heap does, so equal-distance nodes leave in the order they
// always have and equal-cost routes keep their historical first hop;
// the typed slice spares the interface boxing of every push and pop.
type distHeap []nodeDist

func (h *distHeap) push(x nodeDist) {
	q := append(*h, x)
	*h = q
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() nodeDist {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].dist < q[j].dist {
			j = r
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
