package mesh

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/simnet"
)

// TestEndpointSnapshotRoundTrip is the endpoint twin of
// TestPolicyRoundTrip: what a sidecar routes on after a readiness flip.
// Instant mode follows the cluster at once; a distributed sidecar keeps
// the pushed list until the next push lands. In both modes a list a
// sidecar was handed never changes afterwards — pushed snapshots and
// the cluster's cached list are replaced, never edited.
func TestEndpointSnapshotRoundTrip(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		mode := "instant"
		if distributed {
			mode = "distributed"
		}
		t.Run(mode, func(t *testing.T) {
			tb := buildBed(t, Config{Seed: 1}, echoBackend)
			if distributed {
				tb.m.ControlPlane().EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})
			}
			type handout struct{ got, was []*cluster.Pod }
			var handed []handout
			read := func() []string {
				eps, ok := tb.fe.discoverEndpoints("backend")
				if !ok {
					t.Fatal("backend unknown to the frontend sidecar")
				}
				handed = append(handed, handout{eps, append([]*cluster.Pod(nil), eps...)})
				return names(eps)
			}
			expect := func(step string, stale, fresh []string) {
				t.Helper()
				if distributed {
					if got := read(); !equalNames(got, stale) {
						t.Fatalf("%s: %v visible before the push landed, want %v", step, got, stale)
					}
					tb.sched.RunFor(time.Second)
				}
				if got := read(); !equalNames(got, fresh) {
					t.Fatalf("%s: sidecar routes on %v, want %v", step, got, fresh)
				}
			}
			both, only2 := []string{"backend-1", "backend-2"}, []string{"backend-2"}
			b1 := tb.cl.Pod("backend-1")
			expect("start", both, both)
			b1.SetReady(false)
			expect("drain", both, only2)
			b1.SetReady(true)
			expect("restore", only2, both)
			b1.SetReady(false)
			b1.SetReady(true) // a flip and its undo inside one debounce window
			expect("blip", both, both)
			for i, h := range handed {
				if !equalNames(names(h.got), names(h.was)) {
					t.Fatalf("list %d changed after it was handed out: %v, was %v", i, names(h.got), names(h.was))
				}
			}
		})
	}
}

// TestStagedEndpointsMatchFullScan: after every step of a random churn
// (readiness flips, crash-restarts that the config-sync gate holds
// back, scale-ups, simulated time passing), what each control plane
// last staged for every service equals a full recomputation. The
// distributor compares only the services selecting the pod that
// changed; this is the check that no other service could have moved.
func TestStagedEndpointsMatchFullScan(t *testing.T) {
	cfgs := map[string]DistributionConfig{
		"global":        {Debounce: 5 * time.Millisecond},
		"global-gated":  {Debounce: 5 * time.Millisecond, PushTimeout: 100 * time.Millisecond, ResyncDelay: 50 * time.Millisecond, GateReadiness: true},
		"regions-gated": {Debounce: 5 * time.Millisecond, PushTimeout: 100 * time.Millisecond, ResyncDelay: 50 * time.Millisecond, GateReadiness: true, PerRegion: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			bed := buildFedBed(t, map[string]string{
				"backend-a1": "zone-a1", "backend-a2": "zone-a2", "backend-b": "zone-b1", "backend-c": "zone-c1",
			})
			// A second service over the same pods, and one over a single
			// zone: a flip must re-stage every service selecting the pod.
			bed.cl.AddService("everything", 9080, nil)
			bed.cl.AddService("zone-a1-only", 9080, map[string]string{cluster.ZoneLabel: "zone-a1"})
			cp := bed.m.ControlPlane()
			cp.EnableDistribution(cfg)
			rng := rand.New(rand.NewSource(7))
			gatedSeen := false
			for step := 0; step < 300; step++ {
				pods := bed.cl.Pods()
				p := pods[rng.Intn(len(pods))]
				switch k := rng.Intn(10); {
				case k < 5:
					p.SetReady(!p.Ready())
				case k < 6 && bed.m.Sidecar(p.Name()) != nil:
					// Crash-restart: ready again while still partitioned.
					p.Partition(true)
					p.SetReady(false)
					bed.sched.RunFor(200 * time.Millisecond)
					p.SetReady(true)
				case k < 7:
					p.Partition(false)
				case k < 8 && step < 100:
					zone := []string{"zone-a1", "zone-b1", "zone-c1"}[rng.Intn(3)]
					np := bed.cl.AddPod(cluster.PodSpec{
						Name: fmt.Sprintf("backend-new-%d", step), Labels: map[string]string{"app": "backend"}, Zone: zone,
					})
					bed.m.InjectSidecar(np)
				default:
					bed.sched.RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
				}
				for _, d := range cp.distributors() {
					gatedSeen = gatedSeen || len(d.gated) > 0
					for _, svc := range bed.cl.Services() {
						if want, got := d.routableEps(svc), d.lastEps[svc.Name()]; !epsEqual(got, want) {
							t.Fatalf("step %d, control plane %q, service %s: staged %v, full scan %v",
								step, d.region, svc.Name(), names(got), names(want))
						}
					}
				}
			}
			if cfg.GateReadiness && !gatedSeen {
				t.Fatal("churn never gated a pod: the gated path went unchecked")
			}
		})
	}
}

// buildFleet is the E21 shape in small: pods in services of 20, every
// pod with a sidecar subscribed to one distributing control plane.
// It returns the first pod of the first service.
func buildFleet(tb testing.TB, pods int) *cluster.Pod {
	tb.Helper()
	cl := cluster.New(simnet.NewNetwork(simnet.NewScheduler()))
	m := New(cl, Config{Seed: 1})
	var first *cluster.Pod
	for i := 0; i < pods; i++ {
		svc := fmt.Sprintf("svc-%d", i/20)
		if i%20 == 0 {
			cl.AddService(svc, 9080, map[string]string{"app": svc})
		}
		p := cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("%s-%d", svc, i%20), Labels: map[string]string{"app": svc}})
		m.InjectSidecar(p)
		if first == nil {
			first = p
		}
	}
	m.ControlPlane().EnableDistribution(DistributionConfig{})
	return first
}

func flipPair(p *cluster.Pod) {
	p.SetReady(false)
	p.SetReady(true)
}

// TestTopologyFlipCostIndependentOfFleet is the scaling guard: the
// control plane's synchronous work for one readiness flip depends on
// the services selecting the pod, not on the fleet. Allocation counts
// repeat exactly, so ten times the pods must cost the same.
func TestTopologyFlipCostIndependentOfFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-pod fleet")
	}
	small, large := buildFleet(t, 200), buildFleet(t, 2000)
	a := testing.AllocsPerRun(20, func() { flipPair(small) })
	b := testing.AllocsPerRun(20, func() { flipPair(large) })
	if a != b {
		t.Fatalf("a readiness flip pair allocates %v times at 200 pods and %v at 2000: per-change work grew with the fleet", a, b)
	}
	t.Logf("flip pair: %v allocs at both sizes", a)
}

// BenchmarkTopologyFlip: one pod's SetReady(false)/SetReady(true) on a
// 2000-subscriber distributing mesh — the cluster's cache invalidation,
// the topology hook and the distributor's re-staging, without the
// pushes that follow.
func BenchmarkTopologyFlip(b *testing.B) {
	p := buildFleet(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flipPair(p)
	}
}
