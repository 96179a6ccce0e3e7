package simnet

import (
	"fmt"
	"slices"
)

// DropFunc observes packets dropped anywhere in the network (queue
// overflow, TTL expiry, no route). The NIC argument is nil for drops not
// attributable to a queue.
type DropFunc func(p *Packet, at *NIC)

// Network owns the topology: nodes, links, and fewest-hop routes.
type Network struct {
	sched  *Scheduler
	nodes  []*Node
	links  []*Link
	byName map[string]*Node

	// routes[src][dstID] = egress NIC over the transit graph: the nodes
	// with two or more NICs. Only a transit node has a row, only transit
	// nodes are searched through, and only a transit destination's entry
	// is read; a single-homed node on either end is resolved through its
	// neighbour (see nextHop). Rows are built lazily on first use and all
	// invalidated together when the transit graph changes (see Connect),
	// so a 10k-node topology never pays for the all-pairs table and
	// attaching a pod to a bridge costs no row at all.
	routes [][]*NIC
	dirty  bool

	// queue is bfs's scratch, reused across rows.
	queue []int

	// fidelity is FidelityPacket until SetFidelity; flowEng is non-nil
	// exactly when fidelity is flow or hybrid (see fidelity.go and
	// flow.go).
	fidelity Fidelity
	flowEng  *FlowEngine

	onDrop DropFunc
	pktSeq uint64

	// pktPool recycles Packet structs across the simulation: a packet is
	// returned here at its single terminal point (local delivery or any
	// drop) and reused by the next AllocPacket. The whole simulation is
	// single-threaded on one scheduler, so a plain slice beats sync.Pool.
	pktPool []*Packet

	// transport is the endpoint layer's per-network state (its connection
	// table), opaque here: simnet does not import the layer, and the layer
	// keeps no package state because parallel sweeps run many networks.
	transport any
	// http is the request layer's per-network state (its record free
	// lists), opaque for the same reasons.
	http any
}

// TransportState returns the value SetTransportState stored, or nil.
func (n *Network) TransportState() any { return n.transport }

// SetTransportState stores the transport layer's per-network state.
func (n *Network) SetTransportState(v any) { n.transport = v }

// HTTPState returns the value SetHTTPState stored, or nil.
func (n *Network) HTTPState() any { return n.http }

// SetHTTPState stores the request layer's per-network state.
func (n *Network) SetHTTPState(v any) { n.http = v }

// NewNetwork returns an empty, packet-level topology bound to the
// scheduler; SetFidelity selects another fidelity.
func NewNetwork(s *Scheduler) *Network {
	if s == nil {
		panic("simnet: nil scheduler")
	}
	return &Network{
		sched:  s,
		byName: make(map[string]*Node),
	}
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

// firstAddr is node 0's address, 10.0.0.1; node i has firstAddr + i.
const firstAddr Addr = 10<<24 | 1

// maxNodes is how many nodes 10.0.0.0/8 numbers, network and broadcast
// addresses excluded.
const maxNodes = 1<<24 - 2

// AddNode creates a node with an auto-assigned address: the node with
// ID i gets 10.0.0.0 + i + 1, so the first 65 535 fill 10.0.0.0/16 and
// the rest continue through 10.0.0.0/8. Names must be unique. A node
// without links changes no route.
func (n *Network) AddNode(name string) *Node {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node name %q", name))
	}
	id := len(n.nodes)
	if id == maxNodes {
		panic(fmt.Sprintf("simnet: node %q would be number %d; 10.0.0.0/8 holds %d", name, id+1, maxNodes))
	}
	node := &Node{id: id, name: name, addr: firstAddr + Addr(id), net: n}
	n.nodes = append(n.nodes, node)
	n.byName[name] = node
	return node
}

// Node returns the node with the given name, or nil.
func (n *Network) Node(name string) *Node { return n.byName[name] }

// NodeByAddr returns the node owning addr, or nil.
func (n *Network) NodeByAddr(a Addr) *Node {
	if i := uint32(a - firstAddr); i < uint32(len(n.nodes)) {
		return n.nodes[i]
	}
	return nil
}

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Connect joins two nodes with a full-duplex link.
//
// Hanging a node without links off a transit node, or pairing two nodes
// without links, keeps every route row: the transit graph is unchanged
// (a row never holds a leaf, and the transit node's new NIC leads only
// to one). Any other link — a leaf's second, or one between nodes that
// already have links — can shorten a transit path, so it drops the rows.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if cfg.Rate <= 0 {
		panic("simnet: link rate must be positive")
	}
	if a == b {
		panic("simnet: cannot link a node to itself")
	}
	if !(len(a.nics) == 0 && len(b.nics) != 1 || len(b.nics) == 0 && len(a.nics) != 1) {
		n.dirty = true
	}
	l := &Link{id: len(n.links), cfg: cfg}
	na := &NIC{node: a, link: l, qdisc: NewFIFO(cfg.QueueBytes)}
	nb := &NIC{node: b, link: l, qdisc: NewFIFO(cfg.QueueBytes)}
	na.peer, nb.peer = nb, na
	l.a, l.b = na, nb
	a.nics = append(a.nics, na)
	b.nics = append(b.nics, nb)
	n.links = append(n.links, l)
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
	dn := n.NodeByAddr(dst)
	if dn == nil || dn == from {
		return nil
	}
	if len(from.nics) == 1 {
		// A single-homed node needs no row: every path leaves through its
		// only NIC, so it reaches exactly its neighbour and whatever the
		// neighbour reaches — which is what its own row would say (a path
		// from the neighbour back through from only returns to the
		// neighbour, so the neighbour's row is the same with from in the
		// graph).
		nic := from.nics[0]
		if nb := nic.peer.node; dn != nb && n.transitHop(nb, dn) == nil {
			return nil
		}
		return nic
	}
	return n.transitHop(from, dn)
}

// transitHop is nextHop for a source that is not single-homed, dn !=
// from. A node without links reaches nothing, and neither does the
// single-homed neighbour of a single-homed source (an isolated pair).
// A single-homed destination is reached over its only link, so the way
// to it is the way to its neighbour — the NIC onto that link when from
// is the neighbour, nothing when the neighbour is single-homed too, and
// from's row entry for the neighbour otherwise. That is exactly what a
// row that searched through leaves would hold: a leaf relaxes nothing
// (its one neighbour is already done when it pops), and it takes its
// neighbour's first hop, final by then, as its own.
func (n *Network) transitHop(from, dn *Node) *NIC {
	if len(from.nics) < 2 {
		return nil
	}
	switch len(dn.nics) {
	case 0:
		return nil
	case 1:
		nic := dn.nics[0].peer
		if nic.node == from {
			return nic
		}
		if dn = nic.node; len(dn.nics) == 1 {
			return nil
		}
	}
	return n.row(from)[dn.id]
}

// row returns transit node src's next-hop row, building it on first use.
func (n *Network) row(src *Node) []*NIC {
	r := n.routes[src.id]
	if r == nil {
		r = n.bfs(src)
		n.routes[src.id] = r
	}
	return r
}

// bfs returns, for each transit destination's node ID, the egress NIC
// at src on a fewest-hop path. It never enters a single-homed node:
// transitHop answers for those, so entries for leaves stay nil.
//
// Each layer is visited in node-id order, and a node takes the first
// hop of the first node that reaches it, through that node's first NIC
// onto it. That is the row Dijkstra with unit link costs builds when
// it pops in (dist, id) order and relaxes only to a strictly shorter
// distance, equal-cost ties included: the first hops do not depend on
// the order in which a search happened to reach a layer.
func (n *Network) bfs(src *Node) []*NIC {
	firstHop := make([]*NIC, len(n.nodes)) // nil: not reached yet
	q := append(n.queue[:0], src.id)
	for lo := 0; lo < len(q); {
		hi := len(q)
		for _, id := range q[lo:hi] {
			cur := n.nodes[id]
			for _, nic := range cur.nics {
				next := nic.peer.node
				if len(next.nics) == 1 || next == src || firstHop[next.id] != nil {
					continue
				}
				if cur == src {
					firstHop[next.id] = nic
				} else {
					firstHop[next.id] = firstHop[cur.id]
				}
				q = append(q, next.id)
			}
		}
		slices.Sort(q[hi:])
		lo = hi
	}
	n.queue = q
	return firstHop
}
