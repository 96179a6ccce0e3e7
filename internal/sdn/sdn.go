// Package sdn models a physical-network SDN controller: it polls link
// utilization, accepts flow-priority hints from the service mesh
// (the out-of-band API of the paper's optimization 3d), and performs
// priority-aware traffic engineering by steering low-priority flows
// onto alternate paths when primary links run hot.
//
// This is the "coordination with lower layers" opportunity of §3.5:
// the mesh knows request priorities; the SDN controller knows link
// state; the interface between them is deliberately narrow (register a
// flow's priority, observe utilization).
package sdn

import (
	"sort"
	"time"

	"meshlayer/internal/simnet"
)

// Controller is the SDN control plane for the simulated network.
type Controller struct {
	net      *simnet.Network
	sched    *simnet.Scheduler
	interval time.Duration

	prevTx map[*simnet.NIC]uint64
	util   map[*simnet.NIC]float64

	flows    map[simnet.FlowKey]simnet.Mark
	teRoutes []TERoute
	steered  map[steerKey]bool

	running bool
	moves   uint64
}

type steerKey struct {
	node *simnet.Node
	flow simnet.FlowKey
}

// DefaultInterval is the utilization sampling period.
const DefaultInterval = 100 * time.Millisecond

// utilAlpha smooths utilization samples.
const utilAlpha = 0.5

// New builds a controller for the network. interval <= 0 selects
// DefaultInterval.
func New(net *simnet.Network, interval time.Duration) *Controller {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Controller{
		net:      net,
		sched:    net.Scheduler(),
		interval: interval,
		prevTx:   make(map[*simnet.NIC]uint64),
		util:     make(map[*simnet.NIC]float64),
		flows:    make(map[simnet.FlowKey]simnet.Mark),
		steered:  make(map[steerKey]bool),
	}
}

// TERoute declares an alternate path for low-priority traffic: when
// the Primary egress NIC at Node exceeds Threshold utilization,
// registered low-priority flows routed through Primary are pinned to
// Alternate; they move back when utilization subsides.
type TERoute struct {
	Node      *simnet.Node
	Primary   *simnet.NIC
	Alternate *simnet.NIC
	Threshold float64
}

// AddTERoute registers a traffic-engineering rule.
func (c *Controller) AddTERoute(r TERoute) {
	if r.Node == nil || r.Primary == nil || r.Alternate == nil {
		panic("sdn: TERoute needs node, primary, and alternate")
	}
	if r.Threshold <= 0 || r.Threshold >= 1 {
		panic("sdn: TERoute threshold must be in (0,1)")
	}
	c.teRoutes = append(c.teRoutes, r)
}

// RegisterFlow is the mesh-facing API: the sidecar layer announces a
// flow's priority out of band (§4.2: "an API call into the SDN
// controller"). Marks at or below simnet.MarkLow are eligible for
// rerouting. A flow stays registered for the controller's lifetime.
func (c *Controller) RegisterFlow(flow simnet.FlowKey, mark simnet.Mark) {
	c.flows[flow] = mark
}

// FlowCount returns the number of registered flows.
func (c *Controller) FlowCount() int { return len(c.flows) }

// Moves returns how many steering changes the controller has made.
func (c *Controller) Moves() uint64 { return c.moves }

// Utilization returns the smoothed utilization of a NIC's egress in
// [0, 1] (0 before the first two samples).
func (c *Controller) Utilization(nic *simnet.NIC) float64 { return c.util[nic] }

// Start begins periodic sampling and TE evaluation.
func (c *Controller) Start() {
	if c.running {
		return
	}
	c.running = true
	c.tick()
}

func (c *Controller) tick() {
	c.sample()
	c.evaluateTE()
	c.sched.After(c.interval, c.tick)
}

func (c *Controller) sample() {
	for _, l := range c.net.Links() {
		for _, nic := range []*simnet.NIC{l.A(), l.B()} {
			tx := nic.TxBytes()
			delta := tx - c.prevTx[nic]
			c.prevTx[nic] = tx
			capacity := float64(l.Config().Rate) / 8 * c.interval.Seconds()
			u := float64(delta) / capacity
			if u > 1 {
				u = 1
			}
			c.util[nic] = (1-utilAlpha)*c.util[nic] + utilAlpha*u
		}
	}
}

func (c *Controller) evaluateTE() {
	for _, r := range c.teRoutes {
		hot := c.util[r.Primary] > r.Threshold
		for _, flow := range c.sortedLowFlows() {
			key := steerKey{node: r.Node, flow: flow}
			switch {
			case hot && !c.steered[key]:
				r.Node.SetFlowRoute(flow, r.Alternate)
				c.steered[key] = true
				c.moves++
			case !hot && c.steered[key]:
				r.Node.SetFlowRoute(flow, nil)
				delete(c.steered, key)
				c.moves++
			}
		}
	}
}

// sortedLowFlows returns rerouting-eligible flows in a deterministic
// order (map iteration order must not leak into the simulation).
func (c *Controller) sortedLowFlows() []simnet.FlowKey {
	var out []simnet.FlowKey
	for f, m := range c.flows {
		if m <= simnet.MarkLow {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		return a.DstPort < b.DstPort
	})
	return out
}
