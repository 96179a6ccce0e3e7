// Package core implements the paper's primary contribution: cross-layer
// prioritization of latency-sensitive requests in a service mesh (§4).
//
// The design has three components, each mapped onto a mesh or
// lower-layer mechanism:
//
//  1. Classify performance objectives at the ingress: the gateway's
//     classifier sets the custom priority header (mesh.HeaderPriority).
//
//  2. Carry the objective through the entire system with each request,
//     via application-level tracing: every sidecar records the
//     (x-request-id -> priority) association when it sees a classified
//     request, and stamps the priority back onto child requests and
//     response connections that share the ID — provenance-based
//     propagation, requiring no application changes beyond the
//     tracing-header copy apps already do. The associations are one
//     mesh-wide trace.Provenance table, swept by its own Puts, so the
//     controller arms no timer.
//
//  3. Cross-layer optimizations keyed on the carried priority:
//     (a) mesh: route priorities to disjoint replica pools (subset
//     routing) and split sidecar connection pools by class;
//     (b) transport: put latency-insensitive transfers on a scavenger
//     congestion controller (LEDBAT / TCP-LP);
//     (c) OS/NIC: install nearly-strict priority queueing (95% share)
//     on the pods' virtual interfaces, matching packet marks;
//     (d) physical network: announce flow priorities to the SDN
//     controller, which steers low-priority flows off hot links.
//
// Each optimization can be enabled independently, which is what the
// ablation experiment (DESIGN.md E5) exercises.
package core

import (
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/sdn"
	"meshlayer/internal/simnet"
	"meshlayer/internal/tc"
	"meshlayer/internal/trace"
	"meshlayer/internal/transport"
)

// PoolPair names the replica subsets serving each priority class of a
// service (optimization 3a).
type PoolPair struct {
	High, Low mesh.SubsetRef
}

// Config selects which cross-layer optimizations to enable.
type Config struct {
	// Mesh is the mesh to install into (required).
	Mesh *mesh.Mesh

	// EnableRouting turns on priority subset routing (3a) for the
	// services listed in PriorityPools.
	EnableRouting bool
	// PriorityPools maps service name -> replica pools per priority.
	PriorityPools map[string]PoolPair

	// EnableScavenger puts low-priority transfers on the scavenger
	// congestion controller (3b).
	EnableScavenger bool

	// EnableTC installs nearly-strict priority qdiscs on every pod
	// uplink (3c).
	EnableTC bool

	// EnableSDN announces flow priorities to the SDN controller (3d).
	// TE routes themselves are topology-specific and configured on the
	// controller by the caller.
	EnableSDN bool
	// SDN is required when EnableSDN is set.
	SDN *sdn.Controller
}

// scavengerCC is the congestion controller of optimization 3b.
const scavengerCC = "ledbat"

// highShare is the high class's bandwidth cap under 3c: the paper's
// "up to 95% of bandwidth".
const highShare = 0.95

// provTTL is how long a provenance record is kept after its request's
// last classified sighting; the table's next sweep then deletes it.
const provTTL = 2 * time.Minute

// Controller is the installed cross-layer prioritization layer.
type Controller struct {
	cfg Config
	// prov is the mesh-wide provenance table: request ID -> the
	// priority class its classified request carried.
	prov trace.Provenance[simnet.Mark]

	// Stats.
	recorded uint64 // provenance records created/refreshed
	stamped  uint64 // priorities stamped onto outbound requests
	restored uint64 // priorities restored onto inbound requests
	qdiscs   int    // TC qdiscs installed
}

// Enable installs the cross-layer controller into the mesh. It must be
// called after all sidecars are injected (it instruments the sidecars
// that exist at call time), and before traffic starts.
func Enable(cfg Config) *Controller {
	if cfg.Mesh == nil {
		panic("core: Config.Mesh is required")
	}
	if cfg.EnableSDN && cfg.SDN == nil {
		panic("core: EnableSDN requires a controller")
	}

	c := &Controller{cfg: cfg}
	m := cfg.Mesh

	for _, sc := range m.Sidecars() {
		sc.AddInboundFilter(c.inboundFilter)
		sc.AddOutboundFilter(c.outboundFilter)
		sc.SetConnClassifier(c.classify)
		if cfg.EnableSDN {
			sc.SetConnHook(c.connHook)
		}
	}

	if cfg.EnableRouting {
		for service, pools := range cfg.PriorityPools {
			m.ControlPlane().SetRouteRule(mesh.RouteRule{
				Service: service,
				HeaderRoutes: []mesh.HeaderRoute{
					{Header: mesh.HeaderPriority, Value: mesh.PriorityHigh, Subset: pools.High},
					{Header: mesh.HeaderPriority, Value: mesh.PriorityLow, Subset: pools.Low},
				},
			})
		}
	}

	if cfg.EnableTC {
		c.installTC()
	}

	if cfg.EnableSDN {
		cfg.SDN.Start()
	}
	return c
}

// installTC puts a nearly-strict priority qdisc on both ends of every
// pod uplink — "the kernel's outgoing packet queue on the sidecar
// container's virtual interface" (§4.3 (3)), plus the bridge-side
// direction toward the pod.
func (c *Controller) installTC() {
	m := c.cfg.Mesh
	clock := m.Scheduler().Now
	for _, pod := range m.Cluster().Pods() {
		link := pod.Uplink()
		for _, nic := range []*simnet.NIC{link.A(), link.B()} {
			nic.SetQdisc(tc.NewNearStrict(tc.NearStrictConfig{
				LinkRate:  link.Config().Rate,
				HighShare: highShare,
			}, clock))
			c.qdiscs++
		}
	}
}

// markOf maps the header value to a packet mark.
func markOf(priority string) simnet.Mark {
	switch priority {
	case mesh.PriorityHigh:
		return simnet.MarkHigh
	case mesh.PriorityLow:
		return simnet.MarkLow
	}
	return simnet.MarkDefault
}

// nameOf maps a packet mark back to the header value.
func nameOf(m simnet.Mark) string {
	switch m {
	case simnet.MarkHigh:
		return mesh.PriorityHigh
	case simnet.MarkLow:
		return mesh.PriorityLow
	}
	return ""
}

// inboundFilter implements provenance recording and the response-path
// half of the cross-layer treatment: the connection a request arrived
// on carries its response bytes, so it inherits the request's mark
// (and, for the low class, the scavenger transport).
func (c *Controller) inboundFilter(ctx httpsim.Ctx, req *httpsim.Request) {
	tid := req.Headers.Get(trace.HeaderRequestID)
	prio := req.Headers.Get(mesh.HeaderPriority)
	if prio == "" && tid != "" {
		if mark, ok := c.prov.Get(tid); ok {
			prio = nameOf(mark)
			if prio != "" {
				req.Headers.Set(mesh.HeaderPriority, prio)
				c.restored++
			}
		}
	} else if prio != "" && tid != "" {
		now := c.cfg.Mesh.Scheduler().Now()
		c.prov.Put(tid, markOf(prio), now+provTTL, now)
		c.recorded++
	}
	mark := markOf(prio)
	if mark == simnet.MarkDefault || ctx.Conn == nil {
		return
	}
	ctx.Conn.SetMark(mark)
	if c.cfg.EnableScavenger {
		if mark == simnet.MarkLow {
			ctx.Conn.SetCongestionControl(scavengerCC)
		} else {
			ctx.Conn.SetCongestionControl("reno")
		}
	}
}

// outboundFilter is §4.3 component (2): the sidecar copies the priority
// of the incoming request onto the outgoing requests that share its
// x-request-id, so classification survives applications that do not
// forward the custom header.
func (c *Controller) outboundFilter(req *httpsim.Request) {
	if req.Headers.Has(mesh.HeaderPriority) {
		return
	}
	tid := req.Headers.Get(trace.HeaderRequestID)
	if tid == "" {
		return
	}
	if mark, ok := c.prov.Get(tid); ok {
		if name := nameOf(mark); name != "" {
			req.Headers.Set(mesh.HeaderPriority, name)
			c.stamped++
		}
	}
}

// classify splits sidecar connection pools by priority class, stamping
// packet marks and selecting the transport per class.
func (c *Controller) classify(req *httpsim.Request) mesh.ConnClass {
	switch req.Headers.Get(mesh.HeaderPriority) {
	case mesh.PriorityHigh:
		return mesh.ConnClass{
			Name:    "priority-high",
			Options: transport.Options{CC: "reno", Mark: simnet.MarkHigh},
		}
	case mesh.PriorityLow:
		cc := "reno"
		if c.cfg.EnableScavenger {
			cc = scavengerCC
		}
		return mesh.ConnClass{
			Name:    "priority-low",
			Options: transport.Options{CC: cc, Mark: simnet.MarkLow},
		}
	}
	return mesh.DefaultConnClass
}

// connHook announces new upstream connections to the SDN controller,
// both directions (responses dominate the wire).
func (c *Controller) connHook(conn *transport.Conn, class mesh.ConnClass) {
	c.cfg.SDN.RegisterFlow(conn.Flow(), class.Options.Mark)
	c.cfg.SDN.RegisterFlow(conn.Flow().Reverse(), class.Options.Mark)
}

// Stats reports the controller's activity counters.
type Stats struct {
	ProvenanceEntries int
	Recorded          uint64
	Stamped           uint64
	Restored          uint64
	QdiscsInstalled   int
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	return Stats{
		ProvenanceEntries: c.prov.Len(),
		Recorded:          c.recorded,
		Stamped:           c.stamped,
		Restored:          c.restored,
		QdiscsInstalled:   c.qdiscs,
	}
}
