package mesh

import (
	"math"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
	"meshlayer/internal/trace"
)

// Tests for zone-aware (locality-weighted) load balancing: the pure
// priority-load math, the selection edge cases, and end-to-end traffic
// shift when a zone's endpoints die.

func TestLocalityWeights(t *testing.T) {
	cases := []struct {
		name                  string
		local, remote         float64
		wantLocal, wantRemote float64
	}{
		{"all healthy", 1, 1, 1, 0},
		{"local fully dead", 0, 1, 0, 1},
		{"everything dead", 0, 0, 0, 0},
		// 50% local health x 1.4 = 0.7 stays local, 0.3 spills.
		{"half local health spills", 0.5, 1, 0.7, 0.3},
		// Above 1/ovp health the local level still takes everything.
		{"overprovisioning absorbs", 0.8, 1, 1, 0},
		// Both degraded: 0.28 + min(0.72, 0.42) = 0.7, normalized 2:3.
		{"both degraded normalize", 0.2, 0.3, 0.4, 0.6},
		// Remote cap binds: local keeps 0.7, remote absorbs only its
		// 0.28 of the 0.3 left, and the pair normalizes over 0.98.
		{"remote too sick to absorb", 0.5, 0.2, 0.5 / 0.7, 0.2 / 0.7},
	}
	for _, c := range cases {
		gotL, gotR := LocalityWeights(c.local, c.remote)
		if math.Abs(gotL-c.wantLocal) > 1e-9 || math.Abs(gotR-c.wantRemote) > 1e-9 {
			t.Errorf("%s: LocalityWeights(%v,%v) = (%v,%v), want (%v,%v)",
				c.name, c.local, c.remote, gotL, gotR, c.wantLocal, c.wantRemote)
		}
	}
}

// zonedBed wires gateway -> frontend (zone-a) -> backend x3, with
// backend-1 local to the frontend and backend-2/3 in zone-b.
type zonedBed struct {
	sched *simnet.Scheduler
	cl    *cluster.Cluster
	m     *Mesh
	gw    *Gateway
	fe    *Sidecar
	hits  map[string]int
}

func buildZonedBed(t *testing.T, backendZones map[string]string) *zonedBed {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	cl := cluster.New(n)
	cl.AddZone("zone-a", simnet.LinkConfig{})
	cl.AddZone("zone-b", simnet.LinkConfig{})

	// The gateway is deliberately zoneless (callers without a zone must
	// bypass locality); the frontend anchors priority level 0 in zone-a.
	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	fePod := cl.AddPod(cluster.PodSpec{Name: "frontend-1", Labels: map[string]string{"app": "frontend"}, Zone: "zone-a"})
	bed := &zonedBed{sched: s, cl: cl, hits: map[string]int{}}
	var bPods []*cluster.Pod
	for _, name := range []string{"backend-1", "backend-2", "backend-3"} {
		bPods = append(bPods, cl.AddPod(cluster.PodSpec{
			Name: name, Labels: map[string]string{"app": "backend"}, Zone: backendZones[name],
		}))
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
	return bed
}

var defaultZones = map[string]string{
	"backend-1": "zone-a", "backend-2": "zone-b", "backend-3": "zone-b",
}

func (bed *zonedBed) fireN(t *testing.T, n int, start, gap time.Duration, failures *int) {
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

func TestLocalityStrictPinsToLocalZone(t *testing.T) {
	bed := buildZonedBed(t, defaultZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityStrict})
	bed.fireN(t, 20, 0, 10*time.Millisecond, nil)
	bed.sched.Run()
	if bed.hits["backend-1"] != 20 || bed.hits["backend-2"]+bed.hits["backend-3"] != 0 {
		t.Fatalf("hits = %v, want all 20 on local backend-1", bed.hits)
	}
}

func TestLocalityFailoverStaysLocalWhenHealthy(t *testing.T) {
	bed := buildZonedBed(t, defaultZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityFailover})
	bed.fireN(t, 20, 0, 10*time.Millisecond, nil)
	bed.sched.Run()
	if bed.hits["backend-1"] != 20 {
		t.Fatalf("hits = %v, want all 20 local", bed.hits)
	}
	if got := bed.m.Metrics().CounterTotal("mesh_lb_cross_zone_total"); got != 0 {
		t.Fatalf("cross-zone selections = %d, want 0", got)
	}
}

func TestLocalityFailoverSpillsWhenLocalZoneDies(t *testing.T) {
	bed := buildZonedBed(t, defaultZones)
	cp := bed.m.ControlPlane()
	cp.SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityFailover})
	cp.SetHealthCheck("backend", HealthCheckPolicy{Enabled: true})
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 2, PerTryTimeout: 100 * time.Millisecond})

	var failures int
	// Prime (starts health checking), then kill the only local backend.
	bed.fireN(t, 5, 0, 10*time.Millisecond, &failures)
	bed.sched.At(500*time.Millisecond, func() {
		bed.cl.Pod("backend-1").Partition(true)
		bed.cl.Pod("backend-1").Host().ResetConns()
	})
	// After the probes mark backend-1 down, traffic must cross zones.
	bed.fireN(t, 20, time.Second, 10*time.Millisecond, &failures)
	bed.sched.RunUntil(3 * time.Second)

	localBefore := 5
	if bed.hits["backend-1"] > localBefore {
		t.Fatalf("dead local backend still hit: %v", bed.hits)
	}
	if bed.hits["backend-2"]+bed.hits["backend-3"] < 20 {
		t.Fatalf("remote zone did not absorb traffic: %v", bed.hits)
	}
	if got := bed.m.Metrics().CounterTotal("mesh_lb_cross_zone_total"); got == 0 {
		t.Fatal("no cross-zone selections recorded")
	}
	if failures != 0 {
		t.Fatalf("%d requests failed during zone failover", failures)
	}
}

func TestLocalitySingleZoneDegeneratesToPlainLB(t *testing.T) {
	// Every backend in the caller's zone: selection must return the
	// full endpoint list (no remote partition), so round-robin spreads
	// exactly as without locality.
	bed := buildZonedBed(t, map[string]string{
		"backend-1": "zone-a", "backend-2": "zone-a", "backend-3": "zone-a",
	})
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityFailover})
	bed.fireN(t, 21, 0, 10*time.Millisecond, nil)
	bed.sched.Run()
	for _, b := range []string{"backend-1", "backend-2", "backend-3"} {
		if bed.hits[b] != 7 {
			t.Fatalf("round-robin skewed with degenerate locality: %v", bed.hits)
		}
	}
	if got := bed.m.Metrics().CounterTotal("mesh_lb_cross_zone_total"); got != 0 {
		t.Fatalf("cross-zone counted in a single-zone cluster: %d", got)
	}
}

func TestLocalityAllZonesDownFailsOpenZoneBlind(t *testing.T) {
	bed := buildZonedBed(t, defaultZones)
	cp := bed.m.ControlPlane()
	cp.SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityFailover})
	cp.SetHealthCheck("backend", HealthCheckPolicy{Enabled: true})
	bed.fireN(t, 2, 0, 10*time.Millisecond, nil)
	bed.sched.At(500*time.Millisecond, func() {
		for _, b := range []string{"backend-1", "backend-2", "backend-3"} {
			bed.cl.Pod(b).Partition(true)
		}
	})
	// With every endpoint of every zone unavailable the selection must
	// hand back the full zone-blind list for the panic machinery.
	bed.sched.At(2*time.Second, func() {
		eps := bed.cl.Service("backend").Endpoints()
		got := bed.fe.localitySelect("backend", eps)
		if len(got) != len(eps) {
			t.Errorf("all-zones-down selection narrowed to %d endpoints, want %d (zone-blind)",
				len(got), len(eps))
		}
	})
	bed.sched.RunUntil(2500 * time.Millisecond)
}

func TestLocalityCallerWithoutZoneUnaffected(t *testing.T) {
	bed := buildZonedBed(t, defaultZones)
	// The gateway pod carries no zone label: even under a strict
	// policy, its selections must stay zone-blind.
	eps := bed.cl.Service("backend").Endpoints()
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityStrict})
	got := bed.m.Sidecar("gateway").localitySelect("backend", eps)
	if len(got) != len(eps) {
		t.Fatalf("zoneless caller narrowed endpoints to %d, want %d", len(got), len(eps))
	}
}

func TestZonelessCallerAllZonesUnhealthyFailsOpen(t *testing.T) {
	// Regression for the PR 5 edge left untested: a caller with no zone
	// label (the gateway) while every endpoint of every zone is marked
	// unhealthy. localitySelect must return the zone-blind list and
	// pickEndpoint's fail-open must still produce a pick — never nil.
	bed := buildZonedBed(t, defaultZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityFailover})
	gw := bed.m.Sidecar("gateway")
	eps := bed.cl.Service("backend").Endpoints()
	for _, ep := range eps {
		gw.epState(ep.Addr()).unhealthy = true
	}
	if got := gw.localitySelect("backend", eps); len(got) != len(eps) {
		t.Fatalf("zoneless caller narrowed unhealthy endpoints to %d, want %d (zone-blind)",
			len(got), len(eps))
	}
	if picked := gw.pickEndpoint("backend", eps); picked == nil {
		t.Fatal("pickEndpoint returned nil: fail-open must re-admit unhealthy endpoints")
	}
}

func TestSetLocalityPolicyValidates(t *testing.T) {
	bed := buildZonedBed(t, defaultZones)
	cp := bed.m.ControlPlane()
	for _, bad := range []LocalityPolicy{
		{Mode: "nearest"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLocalityPolicy(%+v) accepted", bad)
				}
			}()
			cp.SetLocalityPolicy("backend", bad)
		}()
	}
}
