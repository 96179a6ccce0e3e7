package mesh

import (
	"sort"
	"strings"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
)

// This file implements east-west (cross-region) gateways: the
// federation data path. A request whose failover ladder picks a remote
// region never dials the remote pod directly — it traverses an
// egress -> ingress gateway pair, exactly one WAN crossing between the
// two gateways:
//
//	caller sidecar -> eastwest-<local> (egress) -> eastwest-<target>
//	(ingress) -> destination service, restricted to the target region
//
// The caller therefore needs to know only its local gateway and a
// summarized "region X has N endpoints for svc" entry; remote pod
// identities stay inside their region, which is what lets each region
// run its own control plane (distrib.go).

// Federation header names (HeaderEWService, HeaderEWRegion,
// HeaderLocalOnly, HeaderRegion) live in headers.go, the registry.

// EWServicePrefix prefixes the per-region east-west gateway services.
const EWServicePrefix = "eastwest-"

// EWForwardTimeout is the default per-try timeout on the gateway's WAN
// forward leg (egress gateway -> remote ingress gateway). The timeout's
// pool eviction is what matters more than the deadline itself: without
// it, forwards to a partitioned region pile up behind a connection
// stuck in retransmission backoff and keep failing long after the WAN
// heals, and a congested peer's head-of-line-blocked pipeline keeps
// serving 2 MB responses to callers that already gave up. The value
// must sit above a legitimate cold-start bulk transfer across the WAN
// (hundreds of milliseconds) — tight enough to reset a wedged pipe,
// loose enough never to abort a healthy one.
const EWForwardTimeout = time.Second

// EWGatewayService returns the service name of a region's east-west
// gateway.
func EWGatewayService(region string) string { return EWServicePrefix + region }

// isEWService reports whether a service name is an east-west gateway —
// gateway-to-gateway legs must never re-enter the failover ladder.
func isEWService(service string) bool { return strings.HasPrefix(service, EWServicePrefix) }

// RemoteEndpoints summarizes one remote region's capacity for a
// service as exchanged between regional control planes: federated
// gateways advertise an endpoint count, not pod identities.
type RemoteEndpoints struct {
	Region string
	Count  int
}

// ewSummaryTable is one regional control plane's learned view of every
// peer region's capacity — the east-west routing state sidecars'
// ladders spill onto. All mutation goes through apply, the summary
// push path; meshvet's ctlwrite analyzer enforces that nothing else
// writes it, so a WAN partition freezes the table rather than letting
// some shortcut read fresh state.
type ewSummaryTable struct {
	// counts maps region -> service -> advertised endpoint count.
	counts map[string]map[string]int
}

func newEWSummaryTable() *ewSummaryTable {
	return &ewSummaryTable{counts: make(map[string]map[string]int)}
}

// apply replaces one region's advertisement and returns the sorted
// service names whose count changed (the resources to re-stage).
func (t *ewSummaryTable) apply(region string, counts map[string]int) []string {
	old := t.counts[region]
	changed := make(map[string]bool)
	for svc, n := range counts {
		if old[svc] != n {
			changed[svc] = true
		}
	}
	for svc := range old {
		if _, still := counts[svc]; !still {
			changed[svc] = true
		}
	}
	cpy := make(map[string]int, len(counts))
	for svc, n := range counts {
		cpy[svc] = n
	}
	t.counts[region] = cpy
	out := make([]string, 0, len(changed))
	for svc := range changed {
		out = append(out, svc)
	}
	sort.Strings(out)
	return out
}

// remoteFor lists the regions advertising capacity for a service, in
// the given region order (deterministic). Regions with no capacity are
// omitted.
func (t *ewSummaryTable) remoteFor(service string, order []string) []RemoteEndpoints {
	var out []RemoteEndpoints
	for _, r := range order {
		if n := t.counts[r][service]; n > 0 {
			out = append(out, RemoteEndpoints{Region: r, Count: n})
		}
	}
	return out
}

// EastWestGateway is one region's cross-region gateway: a mesh pod
// whose application forwards rather than serves. It plays both halves
// of the pair depending on the request's target region.
type EastWestGateway struct {
	mesh   *Mesh
	sc     *Sidecar
	region string
}

// NewEastWestGateway installs an east-west gateway on the pod (which
// receives a sidecar if it does not have one yet). The pod must live in
// a region; its gateway service — EWGatewayService(region), selecting
// the pod — is how sidecars and peer gateways reach it.
func (m *Mesh) NewEastWestGateway(pod *cluster.Pod) *EastWestGateway {
	region := pod.Region()
	if region == "" {
		panic("mesh: east-west gateway pod needs a region")
	}
	if _, dup := m.eastwest[region]; dup {
		panic("mesh: region " + region + " already has an east-west gateway")
	}
	sc := m.sidecars[pod.Name()]
	if sc == nil {
		sc = m.InjectSidecar(pod)
	}
	g := &EastWestGateway{mesh: m, sc: sc, region: region}
	sc.RegisterApp(g.handle)
	m.eastwest[region] = g
	// The WAN forward leg ships with a per-try timeout (no retries — the
	// original caller owns end-to-end retry) so a wedged cross-region
	// connection is evicted and re-dialed instead of queuing forwards
	// forever; see EWForwardTimeout.
	m.cp.SetRetryPolicy(EWGatewayService(region), RetryPolicy{PerTryTimeout: EWForwardTimeout})
	return g
}

// handle is the gateway application: it inspects the federation
// headers and either forwards across the WAN (egress half) or
// terminates the pair and calls the real service locally (ingress
// half). The trace identity travels untouched, so degraded-response
// provenance (degrade.go) keeps alternating between header and
// request-id map across both hops.
func (g *EastWestGateway) handle(req *httpsim.Request, respond func(*httpsim.Response)) {
	service := req.Headers.Get(HeaderEWService)
	target := req.Headers.Get(HeaderEWRegion)
	if service == "" || target == "" {
		// Not a federation request: nothing is served here.
		respond(httpsim.NewResponse(httpsim.StatusNotFound))
		return
	}
	m := g.mesh
	if target == g.region {
		// Ingress half: strip the federation headers, pin the final leg
		// to this region, and call the real service.
		m.metrics.Counter(MetricEWIngressTotal,
			metrics.Labels{"region": g.region, "service": service}).Inc()
		fwd := req.Clone()
		fwd.Headers.Del(HeaderEWService)
		fwd.Headers.Del(HeaderEWRegion)
		fwd.Headers.Set(HeaderHost, service)
		fwd.Headers.Set(HeaderLocalOnly, "1")
		g.sc.Call(fwd, func(resp *httpsim.Response, err error) {
			if err != nil {
				respond(httpsim.NewResponse(httpsim.StatusServiceUnavailable))
				return
			}
			// Region provenance: where the request actually landed.
			resp.Headers.Set(HeaderRegion, g.region)
			respond(resp)
		})
		return
	}
	// Egress half: one WAN crossing to the target region's gateway. The
	// federation headers ride along; the host header points the mesh
	// routing machinery at the peer gateway service.
	m.metrics.Counter(MetricEWEgressTotal,
		metrics.Labels{"region": g.region, "service": service}).Inc()
	fwd := req.Clone()
	fwd.Headers.Set(HeaderHost, EWGatewayService(target))
	g.sc.Call(fwd, func(resp *httpsim.Response, err error) {
		if err != nil {
			respond(httpsim.NewResponse(httpsim.StatusServiceUnavailable))
			return
		}
		respond(resp)
	})
}
