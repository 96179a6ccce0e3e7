package mesh

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/ctrlplane"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// HeaderCtrl and HeaderFed live in headers.go, the header registry.

// CtrlPlanePod names the pod hosting the distributing control plane.
// Federated mode runs one per region, named CtrlPlanePod + "-" + region.
const CtrlPlanePod = "mesh-ctrlplane"

// FedPort is the regional control planes' summary-exchange listener.
const FedPort = 15010

// serviceState is one service's routing state as distributed to
// sidecars: the endpoint list plus a copy of the operator's policy
// entry. It is the Data payload of a ctrlplane.Resource; sidecars route
// on their snapshotted copy.
type serviceState struct {
	Eps []*cluster.Pod
	// Remote summarizes per-region endpoint counts learned from peer
	// control planes (federated mode): the caller's ladder can spill to
	// a region it holds no concrete endpoints for, via the east-west
	// gateway. Nil outside federated mode. Entries follow region
	// creation order and reflect the last summary received — a WAN
	// partition freezes them (honest split-brain staleness).
	Remote []RemoteEndpoints
	servicePolicy
}

// wireBytes estimates the encoded size (protobuf-ish costs).
func (st *serviceState) wireBytes() int {
	return 48 + 24*len(st.Eps) + 16*len(st.Remote) + st.servicePolicy.wireBytes()
}

// DistributionConfig parameterizes EnableDistribution.
type DistributionConfig struct {
	// Debounce batches changes staged within the window into one push
	// (default 100ms).
	Debounce time.Duration
	// FullState forces state-of-the-world pushes instead of deltas.
	FullState bool
	// PushTimeout gives up on an unacknowledged push and schedules a
	// resync (default 2s).
	PushTimeout time.Duration
	// ResyncDelay is the backoff before re-pushing after a NACK or a
	// lost connection (default 500ms).
	ResyncDelay time.Duration
	// ResyncMax, ResyncJitter, MaxInflightPushes and
	// MaxConcurrentResyncs are the control-plane survivability knobs,
	// passed through to ctrlplane.Config: exponential resync backoff with
	// deterministic per-subscriber jitter, a cap on pushes concurrently
	// in the transport, and an admission window on concurrent full
	// resyncs. Zero values keep the classic behavior.
	ResyncMax            time.Duration
	ResyncJitter         float64
	MaxInflightPushes    int
	MaxConcurrentResyncs int
	// Link overrides the control-plane pod's uplink (rate, delay). The
	// zero value uses the cluster default — at 10k subscribers the CP
	// egress link is the resource resync storms contend for, so E21
	// provisions it explicitly.
	Link simnet.LinkConfig
	// PerRegion runs one control-plane instance per cluster region, its
	// pod on the region's spine, instead of one on the root bridge.
	// Each distributes only its own region's endpoints to local
	// sidecars, plus gateway-summarized remote entries exchanged with
	// peer control planes over the simulated WAN — so a WAN partition
	// yields split-brain staleness instead of magically-global state.
	// Requires at least one region.
	PerRegion bool
	// GateReadiness withholds a pod from distributed endpoint lists
	// until its sidecar has acknowledged a current snapshot: a
	// restarted or scaled-up pod is not routable on stale config. Off
	// by default (pre-federation behavior).
	GateReadiness bool
}

// distributor bridges the generic ctrlplane.Server to the mesh: it
// builds per-service resources from the control plane's policy store
// plus the cluster's discovery state, and ships updates to each sidecar
// as simulated HTTP from the control-plane pod — so propagation delay,
// loss, and partitions are real network effects, not parameters.
type distributor struct {
	cp          *ControlPlane
	pod         *cluster.Pod
	srv         *ctrlplane.Server
	pushTimeout time.Duration
	resyncDelay time.Duration
	clients     map[string]*httpsim.Client
	// pending carries decoded updates to the receiving sidecar; the
	// wire request references them by push id (the simulated body is
	// size-only).
	pending map[uint64]*ctrlplane.Update
	nextID  uint64
	// lastEps dedups topology notifications per service.
	lastEps map[string][]*cluster.Pod

	// region scopes this instance in federated mode ("" = global): it
	// distributes only local endpoints plus summarized remote entries.
	region string
	// summary is the learned remote capacity table (federated mode).
	summary *ewSummaryTable
	// fedClients dials peer control planes, keyed by region.
	fedClients map[string]*httpsim.Client
	// lastAdv is the local capacity last advertised to peers; peerDirty
	// and peerInflight track which peers still need the current counts.
	lastAdv      map[string]int
	peerDirty    map[string]bool
	peerInflight map[string]bool

	// gate withholds pods from endpoint lists until their sidecar acks
	// a current snapshot; gated holds the pods currently withheld and
	// lastReady each pod's readiness at its previous topology change.
	gate      bool
	gated     map[string]bool
	lastReady map[string]bool
}

// federation is the distributors' shared summary exchange: message ids
// for control-plane-to-control-plane pushes.
type federation struct {
	// pending carries decoded summary messages to the receiving control
	// plane, referenced by message id (wire bodies are size-only).
	pending map[uint64]*fedMsg
	nextID  uint64
}

// fedMsg is one summarized capacity advertisement between regions.
type fedMsg struct {
	from   string
	counts map[string]int
}

// EnableDistribution switches the control plane from instantaneous
// shared state to simulated xDS-style distribution: a control-plane
// pod joins the cluster, every sidecar subscribes, and configuration
// or discovery changes reach sidecars only via debounced delta pushes
// over the simulated network. Call after the application is built and
// before the workload starts. Existing sidecars bootstrap their
// snapshots synchronously (a proxy blocks on its initial xDS fetch);
// everything later is pushed.
func (cp *ControlPlane) EnableDistribution(cfg DistributionConfig) {
	if cp.Distributed() {
		panic("mesh: distribution already enabled")
	}
	m := cp.mesh
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = 2 * time.Second
	}
	if cfg.ResyncDelay <= 0 {
		cfg.ResyncDelay = 500 * time.Millisecond
	}
	// One control plane for the whole mesh is the one-member case of one
	// per region: a single instance scoped to no region.
	regions := []string{""}
	if cfg.PerRegion {
		if regions = m.cluster.Regions(); len(regions) == 0 {
			panic("mesh: PerRegion distribution requires at least one region")
		}
	}
	cp.fed = &federation{pending: make(map[uint64]*fedMsg)}
	for _, r := range regions {
		cp.dists = append(cp.dists, newDistributor(cp, cfg, r))
	}
	// Bootstrap the summary tables directly — federation peering, like
	// the gateway addresses, is static configuration; only subsequent
	// changes travel the WAN.
	for _, d := range cp.dists {
		for _, peer := range cp.dists {
			if peer != d {
				peer.summary.apply(d.region, d.lastAdv)
			}
		}
	}
	for _, d := range cp.dists {
		for _, name := range d.serviceNames() {
			d.refreshService(name)
		}
	}
	// Sidecars register with the control plane serving their pod.
	for _, sc := range m.Sidecars() {
		cp.distributorFor(sc.pod).register(sc)
	}
	m.cluster.SetTopologyHook(func(p *cluster.Pod) {
		for _, d := range cp.dists {
			d.topologyChanged(p)
		}
	})
	for _, d := range cp.dists {
		d.seedReadiness()
	}
}

// newDistributor builds one distribution instance: its control-plane
// pod (on the region's spine in federated mode), the ctrlplane server,
// and — in federated mode — the WAN summary-exchange listener.
func newDistributor(cp *ControlPlane, cfg DistributionConfig, region string) *distributor {
	m := cp.mesh
	name := CtrlPlanePod
	if region != "" {
		name += "-" + region
	}
	pod := m.cluster.AddPod(cluster.PodSpec{
		Name:   name,
		Labels: map[string]string{"app": name},
		Region: region,
		Link:   cfg.Link,
	})
	d := &distributor{
		cp:          cp,
		pod:         pod,
		pushTimeout: cfg.PushTimeout,
		resyncDelay: cfg.ResyncDelay,
		clients:     make(map[string]*httpsim.Client),
		pending:     make(map[uint64]*ctrlplane.Update),
		lastEps:     make(map[string][]*cluster.Pod),
		region:      region,
		gate:        cfg.GateReadiness,
		gated:       make(map[string]bool),
		lastReady:   make(map[string]bool),
	}
	d.srv = ctrlplane.NewServer(ctrlplane.Config{
		Sched:                m.sched,
		Transport:            d,
		Metrics:              m.metrics,
		Debounce:             cfg.Debounce,
		FullState:            cfg.FullState,
		ResyncDelay:          cfg.ResyncDelay,
		ResyncMax:            cfg.ResyncMax,
		ResyncJitter:         cfg.ResyncJitter,
		MaxInflightPushes:    cfg.MaxInflightPushes,
		MaxConcurrentResyncs: cfg.MaxConcurrentResyncs,
		OnSynced:             d.subscriberSynced,
	})
	if region != "" {
		d.summary = newEWSummaryTable()
		d.fedClients = make(map[string]*httpsim.Client)
		d.lastAdv = d.localCounts()
		d.peerDirty = make(map[string]bool)
		d.peerInflight = make(map[string]bool)
		if _, err := httpsim.NewServer(pod.Host(), FedPort, d.handleFed); err != nil {
			panic(err)
		}
	}
	return d
}

// serves reports whether pod p is in this instance's scope: its own
// region's pods, or every pod for the region-less global instance.
func (d *distributor) serves(p *cluster.Pod) bool {
	return d.region == "" || p.Region() == d.region
}

// seedReadiness records current pod readiness so updateGate only gates
// actual flips, not pre-existing pods.
func (d *distributor) seedReadiness() {
	if !d.gate {
		return
	}
	for _, p := range d.cp.mesh.cluster.Pods() {
		if d.serves(p) {
			d.lastReady[p.Name()] = p.Ready()
		}
	}
}

// distributors returns every distribution instance: one scoped to no
// region, or one per region in region order (none when disabled).
func (cp *ControlPlane) distributors() []*distributor { return cp.dists }

// distributorFor returns the distribution instance serving a pod (nil
// when distribution is disabled).
func (cp *ControlPlane) distributorFor(pod *cluster.Pod) *distributor {
	for _, d := range cp.dists {
		if d.serves(pod) {
			return d
		}
	}
	if cp.Distributed() {
		panic("mesh: pod " + pod.Name() + " is outside every federated region")
	}
	return nil
}

// Distribution returns the distribution server for stats and staleness
// inspection when there is exactly one; nil in instant-propagation
// mode or with one per region (use Distributions there).
func (cp *ControlPlane) Distribution() *ctrlplane.Server {
	if len(cp.dists) != 1 {
		return nil
	}
	return cp.dists[0].srv
}

// Distributions returns every distribution server in region order: one
// per region in federated mode, a single server otherwise, none when
// distribution is disabled.
func (cp *ControlPlane) Distributions() []*ctrlplane.Server {
	out := make([]*ctrlplane.Server, 0, len(cp.dists))
	for _, d := range cp.dists {
		out = append(out, d.srv)
	}
	return out
}

// serviceNames returns every name that needs a resource: cluster
// services plus policy-only names, sorted.
func (d *distributor) serviceNames() []string {
	seen := make(map[string]bool)
	for _, svc := range d.cp.mesh.cluster.Services() {
		seen[svc.Name()] = true
	}
	for name := range d.cp.policy {
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// register subscribes a sidecar and installs its bootstrapped agent.
func (d *distributor) register(sc *Sidecar) {
	agent := &sidecarAgent{snap: ctrlplane.NewSnapshot(), dist: d}
	agent.applyUpdate(d.srv.Subscribe(sc.pod.Name()))
	//meshvet:allow ctlwrite registration installs the snapshot the push path maintains
	sc.ctrl = agent
	// The bootstrap fetch is synchronous, so a pod gated at AddPod time
	// becomes routable the moment its sidecar comes up synced.
	d.subscriberSynced(sc.pod.Name())
}

// reregister re-subscribes a restarted pod's sidecar. With the
// control plane up, the fresh proxy process bootstraps a new snapshot
// synchronously; with it down, the proxy comes up on the sidecar's
// last-good snapshot (static stability) and full-resyncs after
// recovery.
func (d *distributor) reregister(sc *Sidecar) {
	u := d.srv.Subscribe(sc.pod.Name())
	if u == nil {
		return // control plane down: keep routing on the last-good snapshot
	}
	agent := &sidecarAgent{snap: ctrlplane.NewSnapshot(), dist: d}
	agent.applyUpdate(u)
	//meshvet:allow ctlwrite re-registration installs the fresh bootstrap snapshot
	sc.ctrl = agent
	d.subscriberSynced(sc.pod.Name())
}

// crash models control-plane process death: the pod partitions from
// the network, its connections die, and the server drops all volatile
// push state. Decoded updates pending delivery die with the process —
// a sidecar answering a crashed server's push gets a 404 either way.
func (d *distributor) crash() {
	d.pod.Partition(true)
	d.pod.Host().ResetConns()
	d.clients = make(map[string]*httpsim.Client)
	d.pending = make(map[uint64]*ctrlplane.Update)
	d.srv.Crash()
}

// recover rejoins the pod to the network and restarts the server into
// a new epoch (every subscriber full-resyncs).
func (d *distributor) recover() {
	d.pod.Partition(false)
	d.srv.Recover()
}

// subscriberSynced lifts the config-sync readiness gate once the pod's
// sidecar has acknowledged the current snapshot (ctrlplane.OnSynced).
func (d *distributor) subscriberSynced(name string) {
	if !d.gated[name] || !d.srv.Current(name) {
		return
	}
	delete(d.gated, name)
	d.topologyChanged(d.cp.mesh.cluster.Pod(name)) // the pod just became routable
}

// refreshService rebuilds one service's resource from the control
// plane's policy store + live discovery and stages it for push.
func (d *distributor) refreshService(service string) {
	if service == "" {
		return
	}
	st := d.buildState(service)
	d.lastEps[service] = st.Eps
	d.srv.SetResource(service, st, st.wireBytes())
}

// topologyChanged reacts to discovery churn (pod p added, flipped
// readiness, or released from the gate): only the services selecting p
// can have a different routable endpoint list, so only those are
// compared and re-staged, in name order. In federated mode, changed
// local capacity is also advertised to peer control planes.
func (d *distributor) topologyChanged(p *cluster.Pod) {
	if d.gate {
		d.updateGate(p)
	}
	for _, svc := range p.Services() {
		if epsEqual(d.lastEps[svc.Name()], d.routableEps(svc)) {
			continue
		}
		d.refreshService(svc.Name())
	}
	if d.region != "" {
		d.sendSummaries()
	}
}

// updateGate gates p if it just flipped to ready (or just appeared)
// and its sidecar has not acknowledged a current snapshot: a restarting
// pod is not routable on stale config. An unready pod leaves the gate
// set (readiness excludes it anyway).
func (d *distributor) updateGate(p *cluster.Pod) {
	if !d.serves(p) {
		return
	}
	ready := p.Ready()
	was, seen := d.lastReady[p.Name()]
	d.lastReady[p.Name()] = ready
	if !ready {
		delete(d.gated, p.Name())
		return
	}
	if (!seen || !was) && !d.srv.Current(p.Name()) {
		d.gated[p.Name()] = true
	}
}

func epsEqual(a, b []*cluster.Pod) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// routableEps narrows a service's ready endpoints to the ones this
// instance distributes: its own region's pods in federated mode
// (east-west gateway services excepted — their cross-region addresses
// are static federation config), minus any config-sync-gated pods.
func (d *distributor) routableEps(svc *cluster.Service) []*cluster.Pod {
	eps := svc.Endpoints()
	if d.region == "" && len(d.gated) == 0 {
		return eps
	}
	regional := d.region != "" && !isEWService(svc.Name())
	out := eps[:0:0]
	for _, p := range eps {
		if regional && p.Region() != d.region {
			continue
		}
		if d.gated[p.Name()] {
			continue
		}
		out = append(out, p)
	}
	return out
}

// buildState snapshots discovery and the operator's policy entry for
// one service. The entry is copied by value: its fields are only ever
// replaced in the store, so the copy cannot change under a sidecar.
func (d *distributor) buildState(service string) *serviceState {
	cp := d.cp
	st := &serviceState{servicePolicy: *cp.policyOf(service)}
	if svc := cp.mesh.cluster.Service(service); svc != nil {
		st.Eps = d.routableEps(svc)
		if d.region != "" && !isEWService(service) {
			st.Remote = d.summary.remoteFor(service, cp.mesh.cluster.Regions())
		}
	}
	return st
}

// Push implements ctrlplane.Transport: the update travels as one
// simulated HTTP request from the control-plane pod to the sidecar's
// inbound port, sized like the encoded update. ACK latency — and so
// per-sidecar propagation delay — emerges from the network topology.
func (d *distributor) Push(sub string, u *ctrlplane.Update, done func(bool, error)) {
	m := d.cp.mesh
	sc := m.sidecars[sub]
	if sc == nil {
		done(false, fmt.Errorf("ctrlplane: unknown subscriber %q", sub))
		return
	}
	d.nextID++
	id := d.nextID
	d.pending[id] = u
	req := httpsim.NewRequest("POST", "/ctrlplane/push")
	req.Headers.Set(HeaderCtrl, strconv.FormatUint(id, 10))
	req.Headers.Set(HeaderSource, CtrlPlanePod)
	req.BodyBytes = u.WireBytes
	cl := d.clientFor(sub, sc.pod.Addr())
	cl.DoWithin(req, d.pushTimeout, func(resp *httpsim.Response, err error) {
		delete(d.pending, id)
		switch {
		case err == httpsim.ErrTimeout:
			// Condemn the connection so the resync re-dials instead of
			// waiting out RTO backoff to a possibly-partitioned peer.
			cl.Conn().Abort()
			delete(d.clients, sub)
			done(false, ctrlplane.ErrPushTimeout)
		case err != nil:
			delete(d.clients, sub)
			done(false, err)
		default:
			done(resp.Status == httpsim.StatusOK, nil)
		}
	})
}

func (d *distributor) clientFor(sub string, addr simnet.Addr) *httpsim.Client {
	cl := d.clients[sub]
	if cl == nil || cl.Closed() {
		cl = httpsim.NewClient(d.pod.Host(), addr, InboundPort, transport.Options{CC: "reno"})
		d.clients[sub] = cl
	}
	return cl
}

// localCounts summarizes this region's routable capacity per service —
// what peers advertise to their sidecars as Remote entries. East-west
// gateway services are excluded (static federation config, never
// summarized).
func (d *distributor) localCounts() map[string]int {
	out := make(map[string]int)
	for _, svc := range d.cp.mesh.cluster.Services() {
		if isEWService(svc.Name()) {
			continue
		}
		if n := len(d.routableEps(svc)); n > 0 {
			out[svc.Name()] = n
		}
	}
	return out
}

// sendSummaries advertises local capacity to every peer control plane
// whose view is behind. A peer that cannot be reached stays dirty and
// is retried after the resync delay — so across a WAN partition its
// table simply freezes at the last delivered summary.
func (d *distributor) sendSummaries() {
	counts := d.localCounts()
	if !countsEqual(d.lastAdv, counts) {
		d.lastAdv = counts
		for _, peer := range d.cp.dists {
			if peer != d {
				d.peerDirty[peer.region] = true
			}
		}
	}
	for _, peer := range d.cp.dists {
		if peer != d {
			d.shipSummary(peer)
		}
	}
}

func countsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// shipSummary sends the current advertisement to one peer control
// plane as a simulated HTTP request over the WAN, with the same
// pending-map indirection the sidecar push path uses.
func (d *distributor) shipSummary(peer *distributor) {
	if d.peerInflight[peer.region] || !d.peerDirty[peer.region] {
		return
	}
	d.peerInflight[peer.region] = true
	d.peerDirty[peer.region] = false
	counts := make(map[string]int, len(d.lastAdv))
	for k, v := range d.lastAdv {
		counts[k] = v
	}
	fed := d.cp.fed
	fed.nextID++
	id := fed.nextID
	fed.pending[id] = &fedMsg{from: d.region, counts: counts}
	req := httpsim.NewRequest("POST", "/ctrlplane/summary")
	req.Headers.Set(HeaderFed, strconv.FormatUint(id, 10))
	req.Headers.Set(HeaderSource, d.pod.Name())
	req.BodyBytes = 32 + 24*len(counts)
	cl := d.fedClientFor(peer)
	cl.DoWithin(req, d.pushTimeout, func(resp *httpsim.Response, err error) {
		delete(fed.pending, id)
		if err == httpsim.ErrTimeout {
			cl.Conn().Abort()
			delete(d.fedClients, peer.region)
			d.summaryFailed(peer)
			return
		}
		if err != nil || resp.Status != httpsim.StatusOK {
			if err != nil {
				delete(d.fedClients, peer.region)
			}
			d.summaryFailed(peer)
			return
		}
		d.peerInflight[peer.region] = false
		if d.peerDirty[peer.region] { // capacity moved again while in flight
			d.shipSummary(peer)
		}
	})
}

// summaryFailed re-arms delivery to a peer after the resync backoff.
func (d *distributor) summaryFailed(peer *distributor) {
	d.peerInflight[peer.region] = false
	d.peerDirty[peer.region] = true
	d.cp.mesh.sched.After(d.resyncDelay, func() { d.shipSummary(peer) })
}

func (d *distributor) fedClientFor(peer *distributor) *httpsim.Client {
	cl := d.fedClients[peer.region]
	if cl == nil || cl.Closed() {
		cl = httpsim.NewClient(d.pod.Host(), peer.pod.Addr(), FedPort, transport.Options{CC: "reno"})
		d.fedClients[peer.region] = cl
	}
	return cl
}

// handleFed applies one peer capacity summary to this control plane's
// table and re-stages any service whose remote view changed. 404 drops
// a message the sender has already timed out.
func (d *distributor) handleFed(_ httpsim.Ctx, req *httpsim.Request, respond func(*httpsim.Response)) {
	id, err := strconv.ParseUint(req.Headers.Get(HeaderFed), 10, 64)
	if err != nil {
		respond(httpsim.NewResponse(httpsim.StatusNotFound))
		return
	}
	msg := d.cp.fed.pending[id]
	if msg == nil {
		respond(httpsim.NewResponse(httpsim.StatusNotFound))
		return
	}
	for _, service := range d.summary.apply(msg.from, msg.counts) {
		d.refreshService(service)
	}
	respond(httpsim.NewResponse(httpsim.StatusOK))
}

// sidecarAgent is the sidecar-local xDS client: the snapshot of
// distributed routing state this sidecar routes on. All mutation goes
// through applyUpdate — the push path; meshvet's ctlwrite analyzer
// enforces that nothing else writes it.
type sidecarAgent struct {
	snap *ctrlplane.Snapshot
	// dist is the distribution instance this sidecar subscribes to —
	// its own region's control plane in federated mode.
	dist *distributor
}

// applyUpdate installs one push; false = NACK (delta base mismatch).
func (a *sidecarAgent) applyUpdate(u *ctrlplane.Update) bool { return a.snap.Apply(u) }

// state returns the snapshotted routing state for service, or nil when
// this sidecar has never been told about it.
func (a *sidecarAgent) state(service string) *serviceState {
	if v := a.snap.Get(service); v != nil {
		return v.(*serviceState)
	}
	return nil
}

// handleCtrlPush applies one control-plane push to this sidecar's
// snapshot: 200 ACKs, 409 NACKs (delta base mismatch), 404 drops a
// push the server has already timed out.
func (sc *Sidecar) handleCtrlPush(pushID string, respond func(*httpsim.Response)) {
	id, err := strconv.ParseUint(pushID, 10, 64)
	if err != nil || sc.ctrl == nil || sc.ctrl.dist == nil {
		respond(httpsim.NewResponse(httpsim.StatusNotFound))
		return
	}
	d := sc.ctrl.dist
	u := d.pending[id]
	if u == nil {
		// The server gave up on this push; a late apply would desync
		// the version bookkeeping, so drop it.
		respond(httpsim.NewResponse(httpsim.StatusNotFound))
		return
	}
	if !sc.ctrl.applyUpdate(u) {
		respond(httpsim.NewResponse(httpsim.StatusConflict))
		return
	}
	respond(httpsim.NewResponse(httpsim.StatusOK))
}
