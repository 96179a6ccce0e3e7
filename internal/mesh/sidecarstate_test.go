package mesh

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
	"meshlayer/internal/trace"
)

// replicaBed is one caller sidecar in zone z0 and n replicas of service
// "w" spread over zones z0 and z1: a ctrl_storm frontend toward one
// shard. The replicas carry no sidecars; the tests drive the caller's
// load balancer and its state directly.
func replicaBed(seed int64, n int) (*Mesh, *Sidecar, []*cluster.Pod) {
	cl := cluster.New(simnet.NewNetwork(simnet.NewScheduler()))
	caller := cl.AddPod(cluster.PodSpec{Name: "caller", Labels: map[string]string{"app": "caller"}, Zone: "z0"})
	pods := make([]*cluster.Pod, n)
	for i := range pods {
		pods[i] = cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("w-%d", i), Labels: map[string]string{"app": "w"}, Zone: fmt.Sprintf("z%d", i%2)})
	}
	cl.AddService("w", 9080, map[string]string{"app": "w"})
	m := New(cl, Config{Seed: seed})
	return m, m.InjectSidecar(caller), pods
}

// openAttempt opens an attempt on addr as call.launch does and returns the
// settle that closes it.
func openAttempt(sc *Sidecar, addr simnet.Addr, cb CircuitBreakerPolicy) func(lat time.Duration, failed bool) {
	st := sc.epState(addr)
	st.inflight++
	trial := false
	if st.phase == breakerHalfOpen && !st.trial {
		st.trial, trial = true, true
	}
	return func(lat time.Duration, failed bool) {
		st.inflight--
		st.observe(lat, failed, trial, cb, sc.mesh.sched.Now())
	}
}

// TestEndpointStateMatchesEager: a sidecar makes an endpoint's state at
// the first write and reads a missing one as fresh. Two equal-seed
// meshes take the same seeded walk of LB and locality pushes, picks,
// attempts and their outcomes, probe verdicts, outlier sweeps,
// readiness flips and clock advances. Before every step the eager twin
// makes the state of every replica, as reading once did. After every
// step both must have picked the same replicas and hold equal state for
// each replica (a missing state equal to a fresh one), and the lazy
// twin must hold state for exactly the replicas written.
func TestEndpointStateMatchesEager(t *testing.T) {
	lbs := []LBPolicy{LBRoundRobin, LBRandom, LBLeastRequest, LBEWMA}
	cb := CircuitBreakerPolicy{ConsecutiveFailures: 2, OpenFor: 30 * time.Millisecond}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lm, lazy, lpods := replicaBed(seed, 10)
		em, eager, epods := replicaBed(seed, 10)
		for _, m := range []*Mesh{lm, em} {
			m.ControlPlane().SetOutlierPolicy("w", OutlierPolicy{Enabled: true})
		}
		written := map[string]bool{}
		var open [][2]func(time.Duration, bool)
		for step := 0; step < 300; step++ {
			for _, p := range epods {
				eager.epState(p.Addr())
			}
			switch k := rng.Intn(20); {
			case k == 0:
				lb := lbs[rng.Intn(len(lbs))]
				loc := LocalityPolicy{}
				if rng.Intn(2) == 0 {
					loc.Mode = LocalityFailover
				}
				for _, m := range []*Mesh{lm, em} {
					m.ControlPlane().SetLBPolicy("w", lb)
					m.ControlPlane().SetLocalityPolicy("w", loc)
				}
			case k < 9:
				leps, _ := lazy.discoverEndpoints("w")
				eeps, _ := eager.discoverEndpoints("w")
				if len(leps) == 0 {
					continue
				}
				a, b := lazy.pickEndpoint("w", leps), eager.pickEndpoint("w", eeps)
				if a.Name() != b.Name() {
					t.Fatalf("seed %d step %d: lazy picked %s, eager %s", seed, step, a.Name(), b.Name())
				}
				if rng.Intn(3) > 0 {
					open = append(open, [2]func(time.Duration, bool){openAttempt(lazy, a.Addr(), cb), openAttempt(eager, b.Addr(), cb)})
					written[a.Name()] = true
				}
			case k < 13 && len(open) > 0:
				i := rng.Intn(len(open))
				lat, failed := time.Duration(1+rng.Intn(20))*time.Millisecond, rng.Intn(3) == 0
				open[i][0](lat, failed)
				open[i][1](lat, failed)
				open = append(open[:i], open[i+1:]...)
			case k < 15:
				i, ok := rng.Intn(len(lpods)), rng.Intn(3) > 0
				lazy.probeResult("w", lpods[i].Addr(), ok)
				eager.probeResult("w", epods[i].Addr(), ok)
				written[lpods[i].Name()] = true
			case k < 16:
				leps, _ := lazy.discoverEndpoints("w")
				eeps, _ := eager.discoverEndpoints("w")
				lazy.sweepOutliers("w", leps)
				eager.sweepOutliers("w", eeps)
			case k < 18:
				i := rng.Intn(len(lpods))
				lpods[i].SetReady(!lpods[i].Ready())
				epods[i].SetReady(!epods[i].Ready())
			default:
				d := time.Duration(1+rng.Intn(20)) * time.Millisecond
				if rng.Intn(4) == 0 {
					// Long enough to outlast an ejection (3 s) or a
					// slow-start ramp (1.5 s) within a walk.
					d *= 100
				}
				lm.sched.RunFor(d)
				em.sched.RunFor(d)
			}
			for i, p := range lpods {
				l, e := lazy.endpoints[p.Addr()], eager.endpoints[epods[i].Addr()]
				switch {
				case l == nil && written[p.Name()]:
					t.Fatalf("seed %d step %d: %s was written and holds no state", seed, step, p.Name())
				case l == nil && *e != (endpointState{}):
					t.Fatalf("seed %d step %d: %s has no state, eager holds %+v", seed, step, p.Name(), *e)
				case l != nil && !written[p.Name()]:
					t.Fatalf("seed %d step %d: %s holds state no write made: %+v", seed, step, p.Name(), *l)
				case l != nil && *l != *e:
					t.Fatalf("seed %d step %d: %s state %+v, eager %+v", seed, step, p.Name(), *l, *e)
				}
			}
		}
		if a, b := lm.rng.Int63(), em.rng.Int63(); a != b {
			t.Fatalf("seed %d: the twins drew different randomness", seed)
		}
	}
}

// TestUpstreamStateMatchesReference: the state a sidecar keeps per
// upstream service — the round-robin cursor, the retry budget, and the
// running marks of the health-check and outlier loops — answers what
// the four per-service maps it replaced answered, kept here as the
// reference, and exists for exactly the services something was written
// for. Seeded walks over three services mix round-robin picks, budget
// deposits and spends under budgeted and unbudgeted retry policies,
// and health-check and outlier policies pushed and withdrawn with the
// loops they start and stop.
func TestUpstreamStateMatchesReference(t *testing.T) {
	// The services are unknown to the cluster, so their loops tick
	// without probing anything.
	services := []string{"a", "b", "c"}
	// The loops' periods: healthInterval and outlierInterval.
	const hcEvery, outlierEvery = 25 * time.Millisecond, 100 * time.Millisecond
	type loop struct {
		active bool
		next   time.Duration // the next tick, while active
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, sc, pods := replicaBed(seed, 5)
		cp := m.ControlPlane()
		rr := map[string]uint64{}
		budgets := map[string]float64{}
		hc, outlier := map[string]*loop{}, map[string]*loop{}
		for _, s := range services {
			hc[s], outlier[s] = &loop{}, &loop{}
		}
		written := map[string]bool{}
		for step := 0; step < 300; step++ {
			s := services[rng.Intn(len(services))]
			p := RetryPolicy{}
			if rng.Intn(3) > 0 {
				p.BudgetRatio = float64(1+rng.Intn(5)) / 10
				if rng.Intn(2) == 0 {
					p.BudgetBurst = float64(1 + rng.Intn(4))
				}
			}
			// tokens is the reference budget before this step.
			tokens := func() float64 {
				if b, ok := budgets[s]; ok {
					return b
				}
				return p.budgetBurst()
			}
			switch rng.Intn(7) {
			case 0, 1:
				n := 1 + rng.Intn(len(pods))
				got, want := sc.pickRR(s, pods[:n]), pods[rr[s]%uint64(n)]
				rr[s]++
				written[s] = true
				if got != want {
					t.Fatalf("seed %d step %d: pickRR(%s) = %s, want %s", seed, step, s, got.Name(), want.Name())
				}
			case 2:
				sc.depositRetryTokens(s, p)
				if p.BudgetRatio > 0 {
					budgets[s] = min(tokens()+p.BudgetRatio, p.budgetBurst())
					written[s] = true
				}
			case 3:
				got, want := sc.spendRetryToken(s, p), true
				if p.BudgetRatio > 0 {
					b := tokens()
					if want = b >= 1; want {
						b--
					}
					budgets[s] = b
					written[s] = true
				}
				if got != want {
					t.Fatalf("seed %d step %d: spendRetryToken(%s) = %v, want %v", seed, step, s, got, want)
				}
			case 4:
				on := rng.Intn(2) == 0 // false withdraws the policy
				if rng.Intn(2) == 0 {
					cp.SetHealthCheck(s, HealthCheckPolicy{Enabled: on})
				} else {
					cp.SetOutlierPolicy(s, OutlierPolicy{Enabled: on})
				}
			case 5:
				sc.ensureDefenses(s)
				now := m.sched.Now()
				if l := hc[s]; sc.healthCheckFor(s).Enabled && !l.active {
					*l = loop{true, now + hcEvery} // the first tick runs at once
					written[s] = true
				}
				if l := outlier[s]; sc.outlierFor(s).Enabled && !l.active {
					*l = loop{true, now + outlierEvery}
					written[s] = true
				}
			default:
				to := m.sched.Now() + time.Duration(1+rng.Intn(30))*time.Millisecond
				m.sched.RunUntil(to)
				// A loop ticks every interval and stops, clearing its
				// mark, at the first tick that finds its policy withdrawn.
				for _, s := range services {
					for _, l := range []struct {
						*loop
						off   bool
						every time.Duration
					}{{hc[s], !sc.healthCheckFor(s).Enabled, hcEvery}, {outlier[s], !sc.outlierFor(s).Enabled, outlierEvery}} {
						for l.active && l.next <= to {
							if l.off {
								l.active = false
							}
							l.next += l.every
						}
					}
				}
			}
			for _, s := range services {
				u := sc.upstreams[s]
				if u == nil {
					if written[s] {
						t.Fatalf("seed %d step %d: %s was written and holds no state", seed, step, s)
					}
					continue
				}
				if !written[s] {
					t.Fatalf("seed %d step %d: %s holds state no write made: %+v", seed, step, s, *u)
				}
				b, budgeted := budgets[s]
				want := upstreamState{rr: rr[s], tokens: b, budgeted: budgeted, hcActive: hc[s].active, outlierActive: outlier[s].active}
				if *u != want {
					t.Fatalf("seed %d step %d: %s state %+v, want %+v", seed, step, s, *u, want)
				}
			}
		}
	}
}

// TestCrossRegionAttemptWritesPathOnly: an attempt routed through the
// local east-west gateway accounts against the WAN path to its region,
// so the caller holds path state for the regions it reached and no
// endpoint state for the gateway it dialled.
func TestCrossRegionAttemptWritesPathOnly(t *testing.T) {
	bed := buildFedBed(t, defaultFedZones)
	bed.m.ControlPlane().SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityLadder})
	bed.cl.Pod("backend-a1").SetReady(false)
	bed.cl.Pod("backend-a2").SetReady(false)
	bed.fireN(t, 20, 0, 10*time.Millisecond, nil)
	bed.sched.Run()
	if len(bed.fe.regionPaths) != 2 || bed.fe.regionPaths["region-b"] == nil || bed.fe.regionPaths["region-c"] == nil {
		t.Fatalf("frontend holds WAN path state %v, want region-b and region-c", bed.fe.regionPaths)
	}
	if st := bed.fe.endpoints[bed.cl.Pod(EWGatewayService("region-a")).Addr()]; st != nil {
		t.Fatalf("frontend holds endpoint state %+v for the east-west gateway it only routed through", *st)
	}
}

// TestAdmissionStateAtFirstWrite: a sidecar makes its admission state
// when a policy enables admission or an inbound request carries a
// budget under a trace ID, and at no other time. Disabling admission
// drops the controller, and the next enable builds a fresh one.
func TestAdmissionStateAtFirstWrite(t *testing.T) {
	_, sc, _ := replicaBed(1, 1)
	if sc.admissionFor(AdmissionPolicy{}) != nil || sc.admit != nil {
		t.Fatalf("a disabled policy made admission state %+v", sc.admit)
	}
	on := AdmissionPolicy{Enabled: true, QueueLimit: 8}
	first := sc.admissionFor(on)
	if first == nil || sc.admit == nil || sc.admit.ctl != first {
		t.Fatalf("enabling admission gave controller %p and state %+v", first, sc.admit)
	}
	if sc.admissionFor(on) != first {
		t.Fatal("an unchanged policy rebuilt the controller")
	}
	on.QueueLimit = 16
	if c := sc.admissionFor(on); c == first || sc.admit.pol != on {
		t.Fatalf("a changed policy kept controller %p under policy %+v", c, sc.admit.pol)
	}
	first = sc.admit.ctl
	if sc.admissionFor(AdmissionPolicy{QueueLimit: 8}) != nil || sc.admit.ctl != nil {
		t.Fatalf("disabling admission kept controller %p", sc.admit.ctl)
	}
	if again := sc.admissionFor(on); again == nil || again == first {
		t.Fatalf("re-enabling admission gave controller %p, first %p", again, first)
	}

	_, sc, _ = replicaBed(1, 1)
	for _, hdr := range []map[string]string{
		{},
		{HeaderBudget: "500"},
		{trace.HeaderRequestID: "t1"},
		{HeaderBudget: "x", trace.HeaderRequestID: "t1"},
	} {
		req := httpsim.NewRequest("GET", "/")
		for k, v := range hdr {
			req.Headers.Set(k, v)
		}
		if sc.recordInboundDeadline(req); sc.admit != nil {
			t.Fatalf("headers %v made admission state %+v", hdr, sc.admit)
		}
	}
	req := httpsim.NewRequest("GET", "/")
	req.Headers.Set(HeaderBudget, "500")
	req.Headers.Set(trace.HeaderRequestID, "t1")
	if e, _ := sc.recordInboundDeadline(req); e != 500*time.Microsecond || sc.admit == nil || sc.admit.ctl != nil {
		t.Fatalf("a budgeted request: expiry %v, admission state %+v", e, sc.admit)
	}
	if e, ok := sc.admit.deadlines.Get("t1"); !ok || e != 500*time.Microsecond {
		t.Fatalf("deadline table holds %v %v for t1", e, ok)
	}
}

// TestIdleSidecarFootprint is the sidecar's twin of TestConnSizeClass:
// ctrl_storm runs 1,510 sidecars, of which 1,500 only serve, so what a
// sidecar holds before it routes is multiplied into live_heap_mb. A
// sidecar is one struct in the 192 B class and no map; serving leaves
// it so, and a caller that balances over 20 replicas and dials three
// holds routing state for those three and one upstream.
func TestIdleSidecarFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Sidecar{}); got > 192 {
		t.Errorf("unsafe.Sizeof(Sidecar{}) = %d B, budget 192: every sidecar pays a field, "+
			"so argue it with ctrl_storm live_heap_mb or put it behind a pointer made at first write", got)
	}
	sched := simnet.NewScheduler()
	cl := cluster.New(simnet.NewNetwork(sched))
	m := New(cl, Config{Seed: 1})
	var replicas []*Sidecar
	for i := 0; i < 20; i++ {
		sc := m.InjectSidecar(cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("w-%d", i), Labels: map[string]string{"app": "w"}}))
		sc.RegisterApp(func(_ *httpsim.Request, respond func(*httpsim.Response)) {
			respond(httpsim.NewResponse(httpsim.StatusOK))
		})
		replicas = append(replicas, sc)
	}
	cl.AddService("w", 9080, map[string]string{"app": "w"})
	caller := m.InjectSidecar(cl.AddPod(cluster.PodSpec{Name: "caller", Labels: map[string]string{"app": "caller"}}))
	ok := 0
	for i := 0; i < 3; i++ {
		req := httpsim.NewRequest("GET", "/")
		req.Headers.Set(HeaderHost, "w")
		caller.Call(req, func(resp *httpsim.Response, err error) {
			if err == nil && resp.Status == httpsim.StatusOK {
				ok++
			}
		})
	}
	sched.Run()
	if ok != 3 {
		t.Fatalf("%d of 3 calls answered 200", ok)
	}
	for _, sc := range replicas {
		if sc.pools != nil || sc.endpoints != nil || sc.regionPaths != nil || sc.upstreams != nil || sc.admit != nil {
			t.Fatalf("%s only served, yet holds pools=%v endpoints=%v regionPaths=%v upstreams=%v admit=%v",
				sc.pod.Name(), sc.pools, sc.endpoints, sc.regionPaths, sc.upstreams, sc.admit)
		}
	}
	if len(caller.endpoints) != 3 || len(caller.pools) != 3 || len(caller.upstreams) != 1 ||
		caller.regionPaths != nil || caller.admit != nil {
		t.Fatalf("caller dialled 3 of 20 replicas and holds %d endpoint states, %d pools, %d upstreams, regionPaths=%v, admit=%v",
			len(caller.endpoints), len(caller.pools), len(caller.upstreams), caller.regionPaths, caller.admit)
	}
}
