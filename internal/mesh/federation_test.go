package mesh

import (
	"math"
	"sort"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
	"meshlayer/internal/trace"
)

// Tests for the priority failover ladder and the east-west gateway
// data path: tier ordering, per-tier panic fail-open, degradation for
// callers without locality labels, and end-to-end provenance across
// the gateway pair.

func TestLadderWeightsMultiTier(t *testing.T) {
	cases := []struct {
		name  string
		fracs []float64
		want  []float64
	}{
		{"first tier healthy takes all", []float64{1, 1, 1, 1}, []float64{1, 0, 0, 0}},
		{"dead tiers are skipped", []float64{0, 0, 1, 1}, []float64{0, 0, 1, 0}},
		{"spill cascades in order", []float64{0.5, 1, 1, 1}, []float64{0.7, 0.3, 0, 0}},
		// 0.3 and 0.2 x 1.4 absorb 0.42 and 0.28; the third tier the 0.3 left.
		{"each tier absorbs its health", []float64{0.3, 0.2, 1, 1}, []float64{0.42, 0.28, 0.3, 0}},
		// 0.28 + 0.14 = 0.42 of capacity, normalized 2:1.
		{"ladder exhausted normalizes", []float64{0.2, 0.1, 0, 0}, []float64{2.0 / 3, 1.0 / 3, 0, 0}},
		{"everything dead", []float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}},
	}
	for _, c := range cases {
		got := LadderWeights(c.fracs)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("%s: LadderWeights(%v) = %v, want %v", c.name, c.fracs, got, c.want)
				break
			}
		}
	}
}

// fedBed wires gateway -> frontend (region-a/zone-a1) -> backends
// spread over three regions, each region with an east-west gateway.
// Region-a holds zones zone-a1 and zone-a2; regions b and c hold
// zone-b1 and zone-c1.
type fedBed struct {
	sched *simnet.Scheduler
	cl    *cluster.Cluster
	m     *Mesh
	gw    *Gateway
	fe    *Sidecar
	hits  map[string]int
}

var fedRegions = []string{"region-a", "region-b", "region-c"}

func regionOfZone(zone string) string {
	switch zone[len("zone-")] {
	case 'a':
		return "region-a"
	case 'b':
		return "region-b"
	default:
		return "region-c"
	}
}

func buildFedBed(t *testing.T, backendZones map[string]string) *fedBed {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	cl := cluster.New(n)
	for _, r := range fedRegions {
		cl.AddRegion(r, cluster.DefaultWANLink)
	}
	for _, z := range []string{"zone-a1", "zone-a2", "zone-b1", "zone-c1"} {
		cl.AddZoneInRegion(z, regionOfZone(z), simnet.LinkConfig{})
	}

	// Unlike the zoned bed, the gateway must live inside a region: the
	// root bridge has no path to region spines (a severed WAN link is a
	// real partition), so a regionless pod would be unreachable.
	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}, Zone: "zone-a1"})
	fePod := cl.AddPod(cluster.PodSpec{Name: "frontend-1", Labels: map[string]string{"app": "frontend"}, Zone: "zone-a1"})
	bed := &fedBed{sched: s, cl: cl, hits: map[string]int{}}
	names := make([]string, 0, len(backendZones))
	for name := range backendZones {
		names = append(names, name)
	}
	sort.Strings(names)
	var bPods []*cluster.Pod
	for _, name := range names {
		bPods = append(bPods, cl.AddPod(cluster.PodSpec{
			Name: name, Labels: map[string]string{"app": "backend"}, Zone: backendZones[name],
		}))
	}
	var ewPods []*cluster.Pod
	for _, r := range fedRegions {
		svc := EWGatewayService(r)
		ewPods = append(ewPods, cl.AddPod(cluster.PodSpec{
			Name: svc, Labels: map[string]string{"app": svc}, Region: r,
		}))
		cl.AddService(svc, 9080, map[string]string{"app": svc})
	}
	cl.AddService("frontend", 9080, map[string]string{"app": "frontend"})
	cl.AddService("backend", 9080, map[string]string{"app": "backend"})

	m := New(cl, Config{Seed: 11})
	bed.m = m
	bed.gw = m.NewGateway(gwPod)
	bed.fe = m.InjectSidecar(fePod)
	bed.fe.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		child := httpsim.NewRequest("GET", req.Path)
		child.Headers.Set(HeaderHost, "backend")
		child.Headers.Set(trace.HeaderRequestID, req.Headers.Get(trace.HeaderRequestID))
		bed.fe.Call(child, func(resp *httpsim.Response, err error) {
			if err != nil {
				respond(httpsim.NewResponse(httpsim.StatusBadGateway))
				return
			}
			respond(resp.Clone())
		})
	})
	for _, p := range bPods {
		pod := p
		sc := m.InjectSidecar(pod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			bed.hits[pod.Name()]++
			respond(httpsim.NewResponse(httpsim.StatusOK))
		})
	}
	for _, p := range ewPods {
		m.NewEastWestGateway(p)
	}
	return bed
}

var defaultFedZones = map[string]string{
	"backend-a1": "zone-a1", "backend-a2": "zone-a2",
	"backend-b": "zone-b1", "backend-c": "zone-c1",
}

func (bed *fedBed) fireN(t *testing.T, n int, start, gap time.Duration, failures *int) {
	t.Helper()
	for i := 0; i < n; i++ {
		bed.sched.At(start+time.Duration(i)*gap, func() {
			bed.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) {
				if failures != nil && (err != nil || resp.Status >= 500) {
					*failures++
				}
			})
		})
	}
}

func TestLadderPrefersCallerZone(t *testing.T) {
	bed := buildFedBed(t, defaultFedZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityLadder})
	bed.fireN(t, 20, 0, 10*time.Millisecond, nil)
	bed.sched.Run()
	if bed.hits["backend-a1"] != 20 {
		t.Fatalf("hits = %v, want all 20 on the caller-zone backend", bed.hits)
	}
	if got := bed.m.Metrics().CounterTotal("mesh_cross_region_total"); got != 0 {
		t.Fatalf("cross-region selections = %d, want 0 with a healthy local zone", got)
	}
}

func TestLadderZoneDrainedStaysInRegion(t *testing.T) {
	bed := buildFedBed(t, defaultFedZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityLadder})
	bed.cl.Pod("backend-a1").SetReady(false)
	bed.fireN(t, 20, 0, 10*time.Millisecond, nil)
	bed.sched.Run()
	if bed.hits["backend-a2"] != 20 {
		t.Fatalf("hits = %v, want all 20 on the same-region backend", bed.hits)
	}
	if got := bed.m.Metrics().CounterTotal("mesh_cross_region_total"); got != 0 {
		t.Fatalf("cross-region selections = %d, want 0 while the region has capacity", got)
	}
}

func TestLadderRegionDrainedCrossesWAN(t *testing.T) {
	bed := buildFedBed(t, defaultFedZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityLadder})
	bed.cl.Pod("backend-a1").SetReady(false)
	bed.cl.Pod("backend-a2").SetReady(false)
	var failures, regionStamped int
	for i := 0; i < 20; i++ {
		bed.sched.At(time.Duration(i)*10*time.Millisecond, func() {
			bed.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) {
				if err != nil || resp.Status >= 500 {
					failures++
					return
				}
				if resp.Headers.Get(HeaderRegion) != "" {
					regionStamped++
				}
			})
		})
	}
	bed.sched.Run()
	if failures != 0 {
		t.Fatalf("%d requests failed during region failover", failures)
	}
	if got := bed.hits["backend-b"] + bed.hits["backend-c"]; got != 20 {
		t.Fatalf("hits = %v, want all 20 absorbed by remote regions", bed.hits)
	}
	if bed.hits["backend-b"] == 0 || bed.hits["backend-c"] == 0 {
		t.Fatalf("hits = %v, want spread over both remote regions", bed.hits)
	}
	if regionStamped != 20 {
		t.Fatalf("%d/20 responses carried %s provenance", regionStamped, HeaderRegion)
	}
	mtr := bed.m.Metrics()
	if got := mtr.CounterTotal("mesh_cross_region_total"); got == 0 {
		t.Fatal("no cross-region selections recorded")
	}
	if mtr.CounterTotal("gateway_eastwest_egress_total") == 0 ||
		mtr.CounterTotal("gateway_eastwest_ingress_total") == 0 {
		t.Fatal("east-west gateway counters did not move")
	}
}

func TestRegionOnlyModeCollapsesWithRegion(t *testing.T) {
	bed := buildFedBed(t, defaultFedZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityRegionOnly})
	bed.cl.Pod("backend-a1").SetReady(false)
	bed.cl.Pod("backend-a2").SetReady(false)
	var failures int
	bed.fireN(t, 10, 0, 10*time.Millisecond, &failures)
	bed.sched.Run()
	if failures != 10 {
		t.Fatalf("%d/10 requests failed, want all: region mode must not cross regions", failures)
	}
	if got := bed.m.Metrics().CounterTotal("mesh_cross_region_total"); got != 0 {
		t.Fatalf("cross-region selections = %d, want 0 in region-only mode", got)
	}
	if got := bed.hits["backend-b"] + bed.hits["backend-c"]; got != 0 {
		t.Fatalf("remote backends hit in region-only mode: %v", bed.hits)
	}
}

func TestLadderPanicThresholdFailsOpenWithinTier(t *testing.T) {
	// zone-a1 holds two backends, one marked unhealthy: its tier frac is
	// 0.5. With PanicThreshold 0.6 the tier fails open, so the sick host
	// keeps receiving its round-robin share; without it the sick host
	// must see nothing.
	zones := map[string]string{
		"backend-a1": "zone-a1", "backend-a1b": "zone-a1", "backend-a2": "zone-a2",
	}
	for _, panicOn := range []bool{true, false} {
		bed := buildFedBed(t, zones)
		pol := LocalityPolicy{Mode: LocalityLadder}
		if panicOn {
			pol.PanicThreshold = 0.6
		}
		bed.m.ControlPlane().SetLocalityPolicy("backend", pol)
		bed.fe.epState(bed.cl.Pod("backend-a1b").Addr()).unhealthy = true
		bed.fireN(t, 40, 0, 10*time.Millisecond, nil)
		bed.sched.Run()
		if panicOn && bed.hits["backend-a1b"] == 0 {
			t.Fatalf("panic fail-open sent nothing to the sick host: %v", bed.hits)
		}
		if !panicOn && bed.hits["backend-a1b"] != 0 {
			t.Fatalf("health filtering leaked %d hits to the sick host: %v",
				bed.hits["backend-a1b"], bed.hits)
		}
	}
}

func TestLadderRegionlessCallerDegradesZoneBlind(t *testing.T) {
	// A caller with neither zone nor region: even under the full ladder
	// policy its selection must take the exact pre-federation path —
	// zone-blind list, no gateway hops. (Selection only; such a pod has
	// no network path into the regions.)
	bed := buildFedBed(t, defaultFedZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityLadder})
	probe := bed.m.InjectSidecar(bed.cl.AddPod(cluster.PodSpec{Name: "probe", Labels: map[string]string{"app": "probe"}}))
	eps := bed.cl.Service("backend").Endpoints()
	if got := probe.localitySelect("backend", eps); len(got) != len(eps) {
		t.Fatalf("regionless caller narrowed endpoints to %d, want %d (zone-blind)", len(got), len(eps))
	}
	ep, via := probe.pickTarget("backend", extReq("/x"), eps)
	if via != "" {
		t.Fatalf("regionless caller routed via region %q, want direct", via)
	}
	if ep == nil {
		t.Fatal("regionless caller got no endpoint")
	}
	if got := bed.m.Metrics().CounterTotal("mesh_cross_region_total"); got != 0 {
		t.Fatalf("cross-region selections = %d, want 0 for a regionless caller", got)
	}
}

func TestDegradedProvenanceAcrossGatewayHops(t *testing.T) {
	// Satellite check: a fallback synthesized on the far side of the
	// east-west pair must reach the edge with both its degraded and its
	// region provenance intact. Region-a's capacity is drained, so the
	// ladder sends traffic to region-b, where the serving backend's own
	// sidecar papers over a dead ratings dependency — the degraded
	// stamp then has to survive the ingress and egress gateway hops on
	// the way back (the header <-> request-id map alternation of
	// degrade.go, twice more than in PR 5).
	bed := buildFedBed(t, map[string]string{
		"backend-a1": "zone-a1", "backend-b": "zone-b1",
	})
	cp := bed.m.ControlPlane()
	cp.SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityLadder})
	cp.SetFallbackPolicy("ratings", FallbackPolicy{Enabled: true})
	bed.cl.Pod("backend-a1").SetReady(false)

	rtPod := bed.cl.AddPod(cluster.PodSpec{
		Name: "ratings-b", Labels: map[string]string{"app": "ratings"}, Zone: "zone-b1"})
	bed.cl.AddService("ratings", 9080, map[string]string{"app": "ratings"})
	bed.m.InjectSidecar(rtPod).RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	rtPod.Partition(true)

	// backend-b consults ratings and composes a fresh response — its
	// sidecar must restore the degraded stamp it recorded.
	bsc := bed.m.Sidecar("backend-b")
	bsc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		child := httpsim.NewRequest("GET", req.Path)
		child.Headers.Set(HeaderHost, "ratings")
		child.Headers.Set(trace.HeaderRequestID, req.Headers.Get(trace.HeaderRequestID))
		bsc.Call(child, func(resp *httpsim.Response, err error) {
			if err != nil {
				respond(httpsim.NewResponse(httpsim.StatusBadGateway))
				return
			}
			respond(httpsim.NewResponse(httpsim.StatusOK))
		})
	})

	var got *httpsim.Response
	bed.sched.At(0, func() {
		bed.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) {
			if err != nil {
				t.Errorf("edge error: %v", err)
				return
			}
			got = resp
		})
	})
	bed.sched.RunUntil(5 * time.Second)
	if got == nil {
		t.Fatal("no response reached the edge")
	}
	if got.Status != httpsim.StatusOK {
		t.Fatalf("edge status = %d, want 200 (degraded)", got.Status)
	}
	if origin := got.Headers.Get(HeaderDegraded); origin != "ratings" {
		t.Fatalf("%s = %q, want ratings: degraded provenance lost across the gateway pair", HeaderDegraded, origin)
	}
	if r := got.Headers.Get(HeaderRegion); r != "region-b" {
		t.Fatalf("%s = %q, want region-b", HeaderRegion, r)
	}
	if bed.m.Metrics().CounterTotal("mesh_fallback_served_total") == 0 {
		t.Fatal("fallback counter did not move")
	}
}
