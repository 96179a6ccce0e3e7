// Package cluster models the container-orchestration substrate the mesh
// runs on: pods attached to a host bridge through virtual links (the
// KIND-style veth topology of the paper's testbed), label-selected
// services with replica endpoints, and per-pod worker pools bounding
// compute concurrency.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// DefaultLink mirrors the paper's testbed: 15 Gbps inter-pod links with
// a small propagation delay standing in for the veth/bridge traversal.
var DefaultLink = simnet.LinkConfig{Rate: 15 * simnet.Gbps, Delay: 20 * time.Microsecond}

// DefaultZoneUplink connects a zone's bridge to the cluster's root
// bridge: a fat spine link whose propagation delay models the
// inter-zone RTT cost that makes locality-aware routing worth having.
var DefaultZoneUplink = simnet.LinkConfig{Rate: 40 * simnet.Gbps, Delay: 250 * time.Microsecond}

// DefaultWANLink joins two region spines: an order of magnitude less
// capacity than the intra-cluster spine and a 25 ms one-way delay
// (~50 ms RTT), the geography that makes cross-region failover a last
// resort rather than free capacity.
var DefaultWANLink = simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 25 * time.Millisecond}

// ZoneLabel is the well-known pod label carrying the pod's zone, set
// automatically from PodSpec.Zone (topology.kubernetes.io/zone in
// Kubernetes terms, shortened for the simulator).
const ZoneLabel = "zone"

// RegionLabel is the well-known pod label carrying the pod's region,
// set automatically from PodSpec.Region
// (topology.kubernetes.io/region in Kubernetes terms).
const RegionLabel = "region"

// PodSpec describes a pod to create.
type PodSpec struct {
	Name   string
	Labels map[string]string
	// Link overrides the pod's uplink to the bridge; zero Rate selects
	// DefaultLink. The paper's bottleneck is expressed by giving the
	// ratings pod a 1 Gbps uplink.
	Link simnet.LinkConfig
	// Workers bounds concurrent request execution in the pod
	// (container CPU concurrency). <= 0 means effectively unbounded.
	Workers int
	// Zone places the pod behind that zone's bridge instead of the root
	// bridge, creating the zone (with DefaultZoneUplink) on first use.
	// Empty keeps the single-zone topology unchanged.
	Zone string
	// Region places the pod's zone (or, with no Zone, the pod itself)
	// under that region's spine instead of the root bridge, creating the
	// region (with DefaultWANLink to every earlier region) on first use.
	// Empty keeps the single-region topology unchanged: zero-value specs
	// reproduce the pre-federation wiring exactly.
	Region string
}

// Pod is one scheduled workload instance with its own network identity.
type Pod struct {
	name        string
	labels      map[string]string
	node        *simnet.Node
	host        *transport.Host
	uplink      *simnet.Link
	workers     *WorkerPool
	zone        string
	region      string
	notReady    bool
	partitioned bool
	execFactor  float64 // 0 or 1 = nominal speed
	cluster     *Cluster
	// services are the services selecting this pod, sorted by name. Labels
	// never change after AddPod, so membership is settled at AddPod and
	// AddService and a readiness flip touches only these.
	services []*Service
}

// Name returns the pod name.
func (p *Pod) Name() string { return p.name }

// Labels returns the pod's label map. Pods with equal label sets share
// one map, so callers must not mutate it (that would relabel every pod
// holding it, and service membership was derived from it at AddPod).
func (p *Pod) Labels() map[string]string { return p.labels }

// Services returns the services selecting this pod, sorted by name
// (callers must not mutate).
func (p *Pod) Services() []*Service { return p.services }

// Label returns one label value ("" if absent).
func (p *Pod) Label(k string) string { return p.labels[k] }

// Zone returns the pod's zone ("" when the pod sits on the root
// bridge of a single-zone cluster).
func (p *Pod) Zone() string { return p.zone }

// Region returns the pod's region ("" in a single-region cluster).
func (p *Pod) Region() string { return p.region }

// Node returns the pod's simnet node.
func (p *Pod) Node() *simnet.Node { return p.node }

// Addr returns the pod IP.
func (p *Pod) Addr() simnet.Addr { return p.node.Addr() }

// Host returns the pod's transport endpoint.
func (p *Pod) Host() *transport.Host { return p.host }

// Uplink returns the pod-to-bridge link (where TC qdiscs are installed:
// the pod-side NIC is "the sidecar container's virtual interface").
func (p *Pod) Uplink() *simnet.Link { return p.uplink }

// NIC returns the pod-side NIC of the uplink.
func (p *Pod) NIC() *simnet.NIC { return p.uplink.A() }

// Exec runs fn after acquiring a worker and holding it for
// serviceTime — the pod's compute model. The time is scaled by the
// pod's exec factor, which chaos scenarios inflate to model gray
// degradation (CPU throttling, lock contention, a sick disk).
func (p *Pod) Exec(serviceTime time.Duration, fn func()) {
	if f := p.execFactor; f > 0 && f != 1 {
		serviceTime = time.Duration(float64(serviceTime) * f)
	}
	p.workers.Run(serviceTime, fn)
}

// ExecFactor returns the pod's service-time multiplier (1 = nominal).
func (p *Pod) ExecFactor() float64 {
	if p.execFactor <= 0 {
		return 1
	}
	return p.execFactor
}

// SetExecFactor scales all subsequent Exec service times by f. Values
// <= 0 reset to nominal speed. In-flight executions are unaffected —
// the degradation applies to work admitted after the fault starts,
// matching how real gray failures creep in.
func (p *Pod) SetExecFactor(f float64) {
	if f <= 0 {
		f = 1
	}
	p.execFactor = f
}

// Ready reports whether the pod passes its readiness probe. Unready
// pods are excluded from service endpoints (Kubernetes semantics), but
// existing connections keep working.
func (p *Pod) Ready() bool { return !p.notReady }

// SetReady flips the pod's readiness. Marking a pod unready drains new
// traffic away without disturbing in-flight work. Actual flips notify
// the cluster's topology hook (discovery churn).
func (p *Pod) SetReady(ready bool) {
	if p.notReady == !ready {
		return
	}
	p.notReady = !ready
	for _, s := range p.services {
		s.cached = false
	}
	p.cluster.notifyTopology(p)
}

// Partitioned reports whether the pod is network-partitioned.
func (p *Pod) Partitioned() bool { return p.partitioned }

// Partition cuts (or restores) the pod's network: inbound packets are
// blackholed, modeling a partition or a hung host rather than a clean
// process exit. Callers' retries, timeouts, and circuit breakers are
// what recover service — exactly the failure the mesh's resilience
// machinery exists for.
func (p *Pod) Partition(cut bool) {
	p.partitioned = cut
	if cut {
		p.node.SetDeliver(func(*simnet.Packet) {})
	} else {
		p.host.Attach()
	}
}

// Workers returns the pod's worker pool.
func (p *Pod) Workers() *WorkerPool { return p.workers }

// Cluster owns pods and services on one simulated host.
type Cluster struct {
	net         *simnet.Network
	sched       *simnet.Scheduler
	bridge      *simnet.Node
	pods        map[string]*Pod
	podOrder    []*Pod // creation order
	services    map[string]*Service
	svcOrder    []*Service // sorted by name
	zones       map[string]*zone
	zoneOrder   []string
	regions     map[string]*region
	regionOrder []string
	// labelSets holds pod label maps keyed by their sum of labelHash: pods
	// with equal label sets share one map, never written once built.
	labelSets map[uint64]map[string]string
	// onTopology, if set, runs after every discovery-relevant change
	// with the pod that changed: a pod added or a readiness flip. The
	// simulated control plane subscribes here to learn about churn.
	onTopology func(*Pod)
}

// zone is one failure domain: its own bridge node, uplinked to the
// root bridge (or, in a federated cluster, to its region's spine) so
// inter-zone traffic crosses exactly one spine link.
type zone struct {
	name   string
	region string
	bridge *simnet.Node
	uplink *simnet.Link
}

// region is one geography: a spine node its zones uplink to, joined to
// every other region's spine by a dedicated WAN link. The spines form a
// full mesh so chaos can sever one region pair without touching the
// rest; there is deliberately no path through the root bridge — a
// severed WAN link is a real partition, not a detour.
type region struct {
	name  string
	spine *simnet.Node
	// wan holds this region's WAN links keyed by peer region name; the
	// same *Link appears in both endpoints' maps.
	wan map[string]*simnet.Link
}

// New builds a cluster with a bridge node named "bridge".
func New(net *simnet.Network) *Cluster {
	return &Cluster{
		net:       net,
		sched:     net.Scheduler(),
		bridge:    net.AddNode("bridge"),
		pods:      make(map[string]*Pod),
		services:  make(map[string]*Service),
		zones:     make(map[string]*zone),
		regions:   make(map[string]*region),
		labelSets: make(map[uint64]map[string]string),
	}
}

// Network returns the underlying simnet network.
func (c *Cluster) Network() *simnet.Network { return c.net }

// Scheduler returns the simulation scheduler.
func (c *Cluster) Scheduler() *simnet.Scheduler { return c.sched }

// Bridge returns the host bridge node.
func (c *Cluster) Bridge() *simnet.Node { return c.bridge }

// AddZone creates a zone with an explicit uplink configuration. Zones
// are otherwise created lazily with DefaultZoneUplink by the first
// AddPod naming them; use AddZone first to override the spine link.
func (c *Cluster) AddZone(name string, uplink simnet.LinkConfig) {
	c.addZone(name, "", uplink)
}

// AddZoneInRegion creates a zone whose bridge uplinks to the region's
// spine instead of the root bridge. The region is created lazily (with
// DefaultWANLink) on first use.
func (c *Cluster) AddZoneInRegion(name, region string, uplink simnet.LinkConfig) {
	c.addZone(name, region, uplink)
}

func (c *Cluster) addZone(name, region string, uplink simnet.LinkConfig) {
	if name == "" {
		panic("cluster: zone needs a name")
	}
	if _, dup := c.zones[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate zone %q", name))
	}
	if uplink.Rate == 0 {
		uplink = DefaultZoneUplink
	}
	parent := c.bridge
	if region != "" {
		parent = c.regionFor(region).spine
	}
	bridge := c.net.AddNode("bridge-" + name)
	z := &zone{name: name, region: region, bridge: bridge,
		uplink: c.net.Connect(bridge, parent, uplink)}
	c.zones[name] = z
	c.zoneOrder = append(c.zoneOrder, name)
}

func (c *Cluster) zoneFor(name, region string) *zone {
	if z := c.zones[name]; z != nil {
		if region != "" && z.region != region {
			panic(fmt.Sprintf("cluster: zone %q is in region %q, not %q",
				name, z.region, region))
		}
		return z
	}
	c.addZone(name, region, DefaultZoneUplink)
	return c.zones[name]
}

// AddRegion creates a region with an explicit WAN link configuration
// used for the links joining its spine to every earlier region's spine.
// Regions are otherwise created lazily with DefaultWANLink by the first
// AddPod (or zone) naming them.
func (c *Cluster) AddRegion(name string, wan simnet.LinkConfig) {
	if name == "" {
		panic("cluster: region needs a name")
	}
	if _, dup := c.regions[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate region %q", name))
	}
	if wan.Rate == 0 {
		wan = DefaultWANLink
	}
	spine := c.net.AddNode("spine-" + name)
	r := &region{name: name, spine: spine, wan: make(map[string]*simnet.Link)}
	for _, peerName := range c.regionOrder {
		peer := c.regions[peerName]
		l := c.net.Connect(spine, peer.spine, wan)
		r.wan[peerName] = l
		peer.wan[name] = l
	}
	c.regions[name] = r
	c.regionOrder = append(c.regionOrder, name)
}

func (c *Cluster) regionFor(name string) *region {
	if r := c.regions[name]; r != nil {
		return r
	}
	c.AddRegion(name, DefaultWANLink)
	return c.regions[name]
}

// Regions returns region names in creation order.
func (c *Cluster) Regions() []string {
	return append([]string(nil), c.regionOrder...)
}

// RegionPods returns the region's pods in creation order.
func (c *Cluster) RegionPods(region string) []*Pod {
	var out []*Pod
	for _, p := range c.podOrder {
		if p.region == region {
			out = append(out, p)
		}
	}
	return out
}

// RegionSpine returns the region's spine node, or nil for an unknown
// region.
func (c *Cluster) RegionSpine(region string) *simnet.Node {
	if r := c.regions[region]; r != nil {
		return r.spine
	}
	return nil
}

// WANLink returns the link joining two regions' spines (symmetric in
// its arguments), or nil if either region is unknown. WAN-scale chaos
// severs or impairs these.
func (c *Cluster) WANLink(a, b string) *simnet.Link {
	if r := c.regions[a]; r != nil {
		return r.wan[b]
	}
	return nil
}

// ZoneRegion returns the region a zone belongs to ("" for a zone on
// the root bridge or an unknown zone).
func (c *Cluster) ZoneRegion(zone string) string {
	if z := c.zones[zone]; z != nil {
		return z.region
	}
	return ""
}

// Zones returns zone names in creation order.
func (c *Cluster) Zones() []string {
	return append([]string(nil), c.zoneOrder...)
}

// ZonePods returns the zone's pods in creation order.
func (c *Cluster) ZonePods(zone string) []*Pod {
	var out []*Pod
	for _, p := range c.podOrder {
		if p.zone == zone {
			out = append(out, p)
		}
	}
	return out
}

// ZoneUplink returns the zone's spine link to the root bridge, or nil
// for an unknown zone. Correlated-failure scenarios sever it with
// simnet.Link.SetDown to partition the whole zone at once.
func (c *Cluster) ZoneUplink(zone string) *simnet.Link {
	if z := c.zones[zone]; z != nil {
		return z.uplink
	}
	return nil
}

// ZoneBridge returns the zone's bridge node, or nil for an unknown zone.
func (c *Cluster) ZoneBridge(zone string) *simnet.Node {
	if z := c.zones[zone]; z != nil {
		return z.bridge
	}
	return nil
}

// AddPod creates a pod per the spec and attaches it to the bridge.
func (c *Cluster) AddPod(spec PodSpec) *Pod {
	if spec.Name == "" {
		panic("cluster: pod needs a name")
	}
	if _, dup := c.pods[spec.Name]; dup {
		panic(fmt.Sprintf("cluster: duplicate pod %q", spec.Name))
	}
	link := spec.Link
	if link.Rate == 0 {
		link = DefaultLink
	}
	bridge := c.bridge
	region := spec.Region
	switch {
	case spec.Zone != "":
		z := c.zoneFor(spec.Zone, spec.Region)
		bridge = z.bridge
		// A pod inherits its zone's region: placement in a regional zone
		// IS placement in that region.
		region = z.region
	case spec.Region != "":
		bridge = c.regionFor(spec.Region).spine
	}
	node := c.net.AddNode(spec.Name)
	l := c.net.Connect(node, bridge, link)
	labels := c.internLabels(spec.Labels, spec.Zone, region)
	p := &Pod{
		name:    spec.Name,
		labels:  labels,
		node:    node,
		host:    transport.NewHost(node),
		uplink:  l,
		zone:    spec.Zone,
		region:  region,
		workers: NewWorkerPool(c.sched, spec.Workers),
		cluster: c,
	}
	c.pods[spec.Name] = p
	c.podOrder = append(c.podOrder, p)
	for _, s := range c.svcOrder {
		if matches(labels, s.selector) {
			s.members = append(s.members, p)
			s.cached = false
			p.services = append(p.services, s)
		}
	}
	c.notifyTopology(p)
	return p
}

// internLabels returns the label map of a pod built from spec labels,
// zone and region: the shared one for that set, built on first use. The
// pod never holds the caller's map: the zone and region labels must not
// reach a spec map the caller reuses, and service membership is derived
// from the labels once, here and in AddService. A set already held costs
// no allocation; a new set whose hash another set holds gets a map of its
// own.
func (c *Cluster) internLabels(spec map[string]string, zone, region string) map[string]string {
	n, sum := 0, uint64(0)
	eachLabel(spec, zone, region, func(k, v string) { n, sum = n+1, sum+labelHash(k, v) })
	held, ok := c.labelSets[sum]
	if ok && len(held) == n {
		same := true
		eachLabel(spec, zone, region, func(k, v string) {
			if w, ok := held[k]; !ok || w != v {
				same = false
			}
		})
		if same {
			return held
		}
	}
	labels := make(map[string]string, n)
	eachLabel(spec, zone, region, func(k, v string) { labels[k] = v })
	if !ok {
		c.labelSets[sum] = labels
	}
	return labels
}

// eachLabel calls fn with every label of a pod built from spec labels,
// zone and region: the spec's, with ZoneLabel and RegionLabel set from a
// non-empty zone and region.
func eachLabel(spec map[string]string, zone, region string, fn func(k, v string)) {
	for k, v := range spec {
		if (k == ZoneLabel && zone != "") || (k == RegionLabel && region != "") {
			continue
		}
		fn(k, v)
	}
	if zone != "" {
		fn(ZoneLabel, zone)
	}
	if region != "" {
		fn(RegionLabel, region)
	}
}

// labelHash is FNV-1a over one label's key, a separator and its value,
// finished with murmur3's fmix64. A set hashes to the sum over its
// labels, which no map order can change. Without the finish the sum
// collides whenever two labels trade a last byte that differs in bit 0
// alone ({app: a1, zone: z0} against {app: a0, zone: z1}).
func labelHash(k, v string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * prime
	}
	h *= prime // a NUL separator, so "ab"="c" and "a"="bc" differ
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// SetTopologyHook installs fn, called after every discovery-relevant
// change with the pod that changed (pod added, readiness flipped). Nil
// clears the hook.
func (c *Cluster) SetTopologyHook(fn func(*Pod)) { c.onTopology = fn }

func (c *Cluster) notifyTopology(p *Pod) {
	if c.onTopology != nil {
		c.onTopology(p)
	}
}

// Pod returns the named pod, or nil.
func (c *Cluster) Pod(name string) *Pod { return c.pods[name] }

// Pods returns all pods in creation order.
func (c *Cluster) Pods() []*Pod {
	return append([]*Pod(nil), c.podOrder...)
}

// ConnectPods adds a direct pod-to-pod link (e.g. an SDN-managed
// alternate path) bypassing the bridge.
func (c *Cluster) ConnectPods(a, b *Pod, cfg simnet.LinkConfig) *simnet.Link {
	return c.net.Connect(a.node, b.node, cfg)
}

// AddUplink attaches an additional pod-to-bridge link (a second NIC),
// giving the pod parallel paths that SDN-style traffic engineering can
// spread flows across. Destination-based routing keeps using the first
// uplink; the extra path only carries flows pinned to it.
func (c *Cluster) AddUplink(p *Pod, cfg simnet.LinkConfig) *simnet.Link {
	if cfg.Rate == 0 {
		cfg = DefaultLink
	}
	return c.net.Connect(p.node, c.bridge, cfg)
}

// Service groups pods selected by labels under one name and port.
type Service struct {
	name     string
	port     uint16
	selector map[string]string
	// members are the pods the selector matches, in creation order. Pod
	// labels are immutable, so the list only ever grows (AddPod).
	members []*Pod
	// eps caches Endpoints() while cached is set; AddPod of a member and
	// a member's readiness flip clear it. A rebuild always allocates:
	// callers (pushed snapshots, the distributor's change detection) keep
	// the slice they were handed.
	eps    []*Pod
	cached bool
}

// AddService registers a service selecting pods whose labels include
// every selector entry.
func (c *Cluster) AddService(name string, port uint16, selector map[string]string) *Service {
	if _, dup := c.services[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate service %q", name))
	}
	// Membership is settled here and at AddPod, so the service owns its
	// selector just as a pod owns its labels.
	own := make(map[string]string, len(selector))
	for k, v := range selector {
		own[k] = v
	}
	s := &Service{name: name, port: port, selector: own}
	c.services[name] = s
	c.svcOrder = insertByName(c.svcOrder, s)
	for _, p := range c.podOrder {
		if matches(p.labels, own) {
			s.members = append(s.members, p)
			p.services = insertByName(p.services, s)
		}
	}
	return s
}

// insertByName inserts s into the name-sorted list.
func insertByName(list []*Service, s *Service) []*Service {
	i := sort.Search(len(list), func(i int) bool { return list[i].name > s.name })
	return slices.Insert(list, i, s)
}

// Service returns the named service, or nil.
func (c *Cluster) Service(name string) *Service { return c.services[name] }

// Services returns all services sorted by name.
func (c *Cluster) Services() []*Service {
	return append([]*Service(nil), c.svcOrder...)
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Port returns the service port.
func (s *Service) Port() uint16 { return s.port }

// Endpoints returns ready pods matching the selector, in pod creation
// order (deterministic). Unready pods are excluded, mirroring
// Kubernetes endpoint semantics. The slice is shared between callers
// until membership or readiness changes and must not be mutated; it
// never changes after it is handed out.
func (s *Service) Endpoints() []*Pod {
	if !s.cached {
		out := make([]*Pod, 0, len(s.members))
		for _, p := range s.members {
			if p.Ready() {
				out = append(out, p)
			}
		}
		// Clipped, so a caller's append copies instead of writing into
		// the array every other holder shares.
		s.eps, s.cached = out[:len(out):len(out)], true
	}
	return s.eps
}

// Subset returns endpoints additionally matching one label — the mesh's
// destination-subset mechanism (e.g. version=v1 vs v2, or the
// cross-layer controller's priority pools).
func (s *Service) Subset(key, value string) []*Pod {
	var out []*Pod
	for _, p := range s.Endpoints() {
		if p.labels[key] == value {
			out = append(out, p)
		}
	}
	return out
}

func matches(labels, selector map[string]string) bool {
	for k, v := range selector {
		if labels[k] != v {
			return false
		}
	}
	return true
}
