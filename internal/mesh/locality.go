package mesh

import (
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
)

// This file implements Envoy-style locality-weighted load balancing
// with priority failover: endpoints in the caller's zone form priority
// level 0 and all remote zones form level 1; traffic prefers level 0
// and spills to level 1 as the local healthy-host fraction drops,
// governed by the overprovisioning factor. When every level is
// unhealthy the selection degrades to zone-blind (all endpoints), and
// the existing panic-threshold / fail-open machinery takes over.

// LocalityMode selects how zone information influences endpoint choice.
type LocalityMode string

const (
	// LocalityDisabled ignores zones entirely (the default; identical
	// to the pre-zone load balancer).
	LocalityDisabled LocalityMode = ""
	// LocalityStrict always routes to same-zone endpoints when any
	// exist, regardless of their health — the "zone-aware but brittle"
	// rung of the E17 ladder.
	LocalityStrict LocalityMode = "strict"
	// LocalityFailover weights the local zone by its healthy-host
	// fraction times the overprovisioning factor and spills the
	// remainder to remote zones (Envoy's priority-level algorithm).
	LocalityFailover LocalityMode = "failover"
	// LocalityRegionOnly runs the failover ladder across the two local
	// tiers only — caller's zone, then the rest of the caller's region —
	// and never crosses a region boundary. The middle rung of the E19
	// ladder: it absorbs zone failures but collapses with its region.
	LocalityRegionOnly LocalityMode = "region"
	// LocalityLadder runs the full Envoy-style priority ladder: caller's
	// zone -> rest of the local region -> neighboring regions -> anywhere
	// else. The two remote tiers are reached through the east-west
	// gateway pair and are known only as gateway-summarized endpoint
	// counts, so failover decisions honestly degrade with control-plane
	// staleness under a WAN partition.
	LocalityLadder LocalityMode = "ladder"
)

// LocalityPolicy configures zone-aware endpoint selection for a
// destination service. The zero value disables locality.
type LocalityPolicy struct {
	Mode LocalityMode
	// PanicThreshold enables per-tier fail-open in the region/ladder
	// modes: when the chosen tier's healthy-host fraction falls below
	// the threshold, selection within the tier disregards health so the
	// residual traffic spreads over every tier host instead of
	// concentrating on the few survivors (Envoy's panic routing, applied
	// per priority level). Zero disables it.
	PanicThreshold float64
}

// DefaultOverprovisioning scales the local healthy fraction before
// computing spillover: Envoy's default, so traffic starts shifting only
// once fewer than ~71% of local hosts are healthy.
const DefaultOverprovisioning = 1.4

// IsZero reports whether locality routing is disabled.
func (p LocalityPolicy) IsZero() bool { return p.Mode == LocalityDisabled }

// LocalityWeights returns the traffic split between the local priority
// level and the remote spillover level given each level's healthy-host
// fraction — Envoy's priority-load algorithm for two levels, with its
// DefaultOverprovisioning factor ovp. The local level absorbs
// min(1, localFrac·ovp); the remote level takes what remains, capped
// by its own overprovisioned health; if both levels are degraded the
// weights are normalized so they still sum to 1. (0, 0) means no level
// has any healthy host — the caller must fail open zone-blind.
func LocalityWeights(localFrac, remoteFrac float64) (wLocal, wRemote float64) {
	w := LadderWeights([]float64{localFrac, remoteFrac})
	return w[0], w[1]
}

// LadderWeights generalizes LocalityWeights to an arbitrary priority
// ladder: fracs[i] is tier i's healthy-host fraction, highest priority
// first. Each tier absorbs min(remaining, frac·ovp) of the traffic in
// order; if the ladder's total capacity is under 1 the weights are
// normalized so they still sum to 1. An all-zero result means no tier
// has any healthy host — the caller must fail open.
func LadderWeights(fracs []float64) []float64 {
	w := make([]float64, len(fracs))
	remaining, total := 1.0, 0.0
	for i, f := range fracs {
		h := f * DefaultOverprovisioning
		if h > 1 {
			h = 1
		}
		wi := remaining
		if wi > h {
			wi = h
		}
		w[i] = wi
		remaining -= wi
		total += wi
	}
	if total == 0 || total >= 1 {
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// localitySelect narrows eps to one priority level per the service's
// locality policy. It returns eps unchanged when locality is disabled,
// the caller has no zone, or the cluster degenerates to a single zone
// (so single-zone topologies behave — and randomize — exactly as
// before zones existed). The region/ladder modes only reach this path
// for a regionless caller, where they degrade to failover semantics;
// a zoneless regionless caller falls all the way back to the zone-blind
// pre-locality behavior.
func (sc *Sidecar) localitySelect(service string, eps []*cluster.Pod) []*cluster.Pod {
	pol := sc.localityFor(service)
	if pol.IsZero() {
		return eps
	}
	zone := sc.pod.Zone()
	if zone == "" {
		return eps
	}
	local := eps[:0:0]
	remote := eps[:0:0]
	for _, ep := range eps {
		if ep.Zone() == zone {
			local = append(local, ep)
		} else {
			remote = append(remote, ep)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		return eps
	}
	if pol.Mode == LocalityStrict {
		return local
	}
	now := sc.mesh.sched.Now()
	wLocal, wRemote := LocalityWeights(sc.healthyFrac(local, now), sc.healthyFrac(remote, now))
	switch {
	case wLocal+wRemote == 0:
		return eps // no healthy host anywhere: zone-blind fail-open
	case wRemote == 0:
		return local
	case wLocal == 0:
	case sc.mesh.rng.Float64() < wLocal:
		return local
	}
	sc.mesh.metrics.Counter(MetricLBCrossZoneTotal,
		metrics.Labels{"service": service}).Inc()
	return remote
}

// healthyFrac returns the fraction of eps currently in LB rotation.
func (sc *Sidecar) healthyFrac(eps []*cluster.Pod, now time.Duration) float64 {
	if len(eps) == 0 {
		return 0
	}
	healthy := 0
	for _, ep := range eps {
		if sc.endpoints[ep.Addr()].available(now) {
			healthy++
		}
	}
	return float64(healthy) / float64(len(eps))
}

// --- the full priority ladder (region / ladder modes) ---

// ladderTier is one rung during selection: either local endpoints or
// gateway-summarized remote regions, with the rung's healthy fraction.
type ladderTier struct {
	eps    []*cluster.Pod
	remote []RemoteEndpoints
	frac   float64
}

// localOnly reports whether this request must not leave the caller's
// region: the final leg stamped by an ingress gateway, and any leg of
// the gateway pair itself (a gateway-to-gateway call re-entering the
// ladder would recurse).
func localOnly(service string, req *httpsim.Request) bool {
	return isEWService(service) ||
		req.Headers.Has(HeaderLocalOnly) || req.Headers.Has(HeaderEWRegion)
}

// pickTarget resolves one attempt's destination: a concrete endpoint,
// or ("", region) directing the attempt through the east-west gateway
// pair toward that region. Callers outside the region/ladder modes —
// and regionless callers within them — take the exact pre-federation
// path, byte-identical randomness included.
func (sc *Sidecar) pickTarget(service string, req *httpsim.Request, eps []*cluster.Pod) (*cluster.Pod, string) {
	pol := sc.localityFor(service)
	ladder := pol.Mode == LocalityRegionOnly || pol.Mode == LocalityLadder
	if !ladder || sc.pod.Region() == "" {
		if len(eps) == 0 {
			return nil, ""
		}
		return sc.pickEndpoint(service, eps), ""
	}
	tierEps, via, panicOpen := sc.ladderSelect(service, req, eps)
	if via != "" {
		sc.mesh.metrics.Counter(MetricCrossRegionTotal,
			metrics.Labels{"service": service, "region": via}).Inc()
		return nil, via
	}
	if len(tierEps) == 0 {
		return nil, ""
	}
	return sc.pickFrom(service, tierEps, panicOpen), ""
}

// ladderSelect walks the priority ladder: caller's zone, rest of the
// local region, then (ladder mode, unless the request is pinned local)
// neighboring regions and anywhere else. Local rungs are weighted by
// observed health; remote rungs are known only as summarized endpoint
// counts and weigh in at full health — the caller cannot see WAN-side
// sickness until its attempts fail.
func (sc *Sidecar) ladderSelect(service string, req *httpsim.Request, eps []*cluster.Pod) (tierEps []*cluster.Pod, via string, panicOpen bool) {
	pol := sc.localityFor(service)
	region := sc.pod.Region()
	zone := sc.pod.Zone()
	var zoneEps, regionEps []*cluster.Pod
	for _, ep := range eps {
		switch {
		case ep.Region() != region:
			// Remote pods visible to an instant-propagation caller are
			// folded into the summarized remote rungs below.
		case zone != "" && ep.Zone() == zone:
			zoneEps = append(zoneEps, ep)
		default:
			regionEps = append(regionEps, ep)
		}
	}
	now := sc.mesh.sched.Now()
	var tiers []ladderTier
	if len(zoneEps) > 0 {
		tiers = append(tiers, ladderTier{eps: zoneEps, frac: sc.healthyFrac(zoneEps, now)})
	}
	if len(regionEps) > 0 {
		tiers = append(tiers, ladderTier{eps: regionEps, frac: sc.healthyFrac(regionEps, now)})
	}
	var remoteAll []RemoteEndpoints
	if pol.Mode == LocalityLadder && !localOnly(service, req) {
		// Remote rungs are weighted by the health of the WAN path to
		// each region — learned from this sidecar's own failed attempts,
		// since the summarized counts keep advertising a partitioned
		// region at full strength until its control plane is reachable
		// again.
		neighbor, far := sc.remoteTiers(service, eps)
		if len(neighbor) > 0 {
			tiers = append(tiers, ladderTier{remote: neighbor, frac: sc.regionPathFrac(neighbor, now)})
		}
		if len(far) > 0 {
			tiers = append(tiers, ladderTier{remote: far, frac: sc.regionPathFrac(far, now)})
		}
		remoteAll = append(append(remoteAll, neighbor...), far...)
	}
	if len(tiers) == 0 {
		return nil, "", false
	}
	fracs := make([]float64, len(tiers))
	for i := range tiers {
		fracs[i] = tiers[i].frac
	}
	w := LadderWeights(fracs)
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	if total == 0 {
		// No rung has a healthy host: fail open across everything the
		// caller can reach without a gateway — or, when the local region
		// has nothing left at all, through the gateways regardless of
		// path health (a dark path still beats a guaranteed failure).
		all := append(append(eps[:0:0], zoneEps...), regionEps...)
		if len(all) == 0 && len(remoteAll) > 0 {
			return nil, sc.pickRemoteRegion(remoteAll), false
		}
		return all, "", true
	}
	r := sc.mesh.rng.Float64() * total
	idx := len(tiers) - 1 // float rounding: the last rung absorbs the residue
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if r < acc {
			idx = i
			break
		}
	}
	t := tiers[idx]
	if t.remote != nil {
		return nil, sc.pickRemoteRegion(t.remote), false
	}
	if idx > 0 && len(zoneEps) > 0 {
		sc.mesh.metrics.Counter(MetricLBCrossZoneTotal,
			metrics.Labels{"service": service}).Inc()
	}
	return t.eps, "", pol.PanicThreshold > 0 && t.frac < pol.PanicThreshold
}

// remoteTiers summarizes the service's out-of-region capacity, split
// into the neighbor rung and the anywhere rung. Regions form a ring in
// creation order (the cluster's geography); a region's ring neighbors
// are one hop away, everything else is "anywhere". Counts merge what
// the caller can see directly (instant-propagation mode) with the
// gateway-summarized entries its regional control plane pushed.
func (sc *Sidecar) remoteTiers(service string, eps []*cluster.Pod) (neighbor, far []RemoteEndpoints) {
	own := sc.pod.Region()
	counts := make(map[string]int)
	for _, ep := range eps {
		if r := ep.Region(); r != own && r != "" {
			counts[r]++
		}
	}
	if st, dist := sc.ctrlState(service); dist && st != nil {
		for _, re := range st.Remote {
			if re.Region != own && re.Count > 0 {
				counts[re.Region] += re.Count
			}
		}
	}
	regions := sc.mesh.cluster.Regions()
	ownIdx := -1
	for i, r := range regions {
		if r == own {
			ownIdx = i
		}
	}
	for i, r := range regions {
		c := counts[r]
		if c == 0 || r == own {
			continue
		}
		d := i - ownIdx
		if d < 0 {
			d = -d
		}
		if ownIdx >= 0 && (d == 1 || d == len(regions)-1) {
			neighbor = append(neighbor, RemoteEndpoints{Region: r, Count: c})
		} else {
			far = append(far, RemoteEndpoints{Region: r, Count: c})
		}
	}
	return neighbor, far
}

// regionPathFrac is the summarized-endpoint-weighted fraction of a
// remote rung whose WAN paths are currently admitting traffic.
func (sc *Sidecar) regionPathFrac(rs []RemoteEndpoints, now time.Duration) float64 {
	total, avail := 0, 0
	for _, r := range rs {
		total += r.Count
		if sc.regionPaths[r.Region].available(now) {
			avail += r.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(avail) / float64(total)
}

// pickRemoteRegion draws a region proportionally to its summarized
// endpoint count, among regions whose WAN path is admitting traffic;
// when every path is dark it fails open across all of them.
func (sc *Sidecar) pickRemoteRegion(rs []RemoteEndpoints) string {
	now := sc.mesh.sched.Now()
	live := rs[:0:0]
	for _, r := range rs {
		if sc.regionPaths[r.Region].available(now) {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		live = rs
	}
	if len(live) == 1 {
		return live[0].Region
	}
	total := 0
	for _, r := range live {
		total += r.Count
	}
	n := sc.mesh.rng.Intn(total)
	for _, r := range live {
		n -= r.Count
		if n < 0 {
			return r.Region
		}
	}
	return live[len(live)-1].Region
}
