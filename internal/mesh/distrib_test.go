package mesh

import (
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
)

// serveOK drives one gateway request and returns the responding
// backend pod name ("" on failure).
func serveOK(t *testing.T, tb *testbed) string {
	t.Helper()
	req := httpsim.NewRequest("GET", "/p")
	req.Headers.Set(HeaderHost, "frontend")
	backend := ""
	tb.gw.Serve(req, func(resp *httpsim.Response, err error) {
		if err == nil && resp.Status == httpsim.StatusOK {
			backend = resp.Headers.Get("x-backend")
		}
	})
	tb.sched.RunFor(2 * time.Second)
	return backend
}

func TestDistributionPolicyPropagatesViaPush(t *testing.T) {
	tb := buildBed(t, Config{Seed: 1}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.EnableDistribution(DistributionConfig{Debounce: 50 * time.Millisecond})

	// A route rule pinning backend to v2 must not take effect until the
	// push lands: stage it and serve immediately (round-robin would
	// alternate pods), then after propagation every request goes to v2.
	cp.SetRouteRule(RouteRule{Service: "backend", DefaultSubset: SubsetRef{Key: "version", Value: "v2"}})
	if tb.fe.routeRuleFor("backend") != nil {
		t.Fatalf("route rule visible before the push landed")
	}
	tb.sched.RunFor(time.Second)
	if tb.fe.routeRuleFor("backend") == nil {
		t.Fatalf("route rule never propagated")
	}
	for i := 0; i < 4; i++ {
		if got := serveOK(t, tb); got != "backend-2" {
			t.Fatalf("request %d went to %q, want backend-2", i, got)
		}
	}
	srv := cp.Distribution()
	if srv == nil || srv.Stats().Acks == 0 {
		t.Fatalf("no acknowledged pushes recorded: %+v", srv)
	}
}

func TestDistributionEndpointChurnPropagates(t *testing.T) {
	tb := buildBed(t, Config{Seed: 1}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})

	// Drain backend-1: discovery changes, and after the push the
	// frontend's snapshot must no longer list it.
	tb.cl.Pod("backend-1").SetReady(false)
	st, _ := tb.fe.ctrlState("backend")
	if len(st.Eps) != 2 {
		t.Fatalf("snapshot updated before any push: %d eps", len(st.Eps))
	}
	tb.sched.RunFor(time.Second)
	st, _ = tb.fe.ctrlState("backend")
	if len(st.Eps) != 1 || st.Eps[0].Name() != "backend-2" {
		t.Fatalf("drain did not propagate: %v", names(st.Eps))
	}

	// A new replica appears: AddPod + sidecar injection must subscribe
	// the new pod and re-push the endpoint set to everyone.
	b3 := tb.cl.AddPod(cluster.PodSpec{Name: "backend-3", Labels: map[string]string{"app": "backend", "version": "v3"}})
	sc3 := tb.m.InjectSidecar(b3)
	sc3.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		echoBackend(b3, req, respond)
	})
	if sc3.ctrl == nil {
		t.Fatalf("new sidecar not subscribed to the control plane")
	}
	tb.sched.RunFor(time.Second)
	st, _ = tb.fe.ctrlState("backend")
	if len(st.Eps) != 2 {
		t.Fatalf("scale-up did not propagate: %v", names(st.Eps))
	}
}

func TestPushDelaySuppressesDistribution(t *testing.T) {
	tb := buildBed(t, Config{Seed: 1}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})

	// Chaos CPStale: under a hold, staged changes reach nobody; the
	// sidecars keep routing on the old snapshot. Lifting it flushes.
	cp.SetPushDelay(time.Hour)
	cp.SetRouteRule(RouteRule{Service: "backend", DefaultSubset: SubsetRef{Key: "version", Value: "v1"}})
	tb.sched.RunFor(2 * time.Second)
	if tb.fe.routeRuleFor("backend") != nil {
		t.Fatalf("push escaped the hold")
	}
	if lag := cp.Distribution().MaxLag(); lag == 0 {
		t.Fatalf("version lag should accumulate under the hold")
	}
	cp.SetPushDelay(0)
	tb.sched.RunFor(time.Second)
	if tb.fe.routeRuleFor("backend") == nil {
		t.Fatalf("rule never propagated after the hold lifted")
	}
}

func TestDistributionResyncAfterPartition(t *testing.T) {
	tb := buildBed(t, Config{Seed: 1}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.EnableDistribution(DistributionConfig{
		Debounce: 20 * time.Millisecond, PushTimeout: 200 * time.Millisecond,
		ResyncDelay: 100 * time.Millisecond,
	})

	// Partition the frontend, change config: pushes to it time out and
	// it stays on its old snapshot. Healing the partition resyncs it.
	tb.cl.Pod("frontend-1").Partition(true)
	cp.SetLBPolicy("backend", LBRandom)
	tb.sched.RunFor(2 * time.Second)
	if tb.fe.lbPolicyFor("backend") != LBRoundRobin {
		t.Fatalf("partitioned sidecar saw the change")
	}
	srv := cp.Distribution()
	if srv.Stats().Timeouts == 0 {
		t.Fatalf("no push timeouts recorded against the partitioned sidecar")
	}

	tb.cl.Pod("frontend-1").Partition(false)
	tb.sched.RunFor(3 * time.Second)
	if tb.fe.lbPolicyFor("backend") != LBRandom {
		t.Fatalf("sidecar not resynced after partition healed")
	}
	if srv.SubscriberVersion("frontend-1") != srv.Version() {
		t.Fatalf("frontend version %d != server %d after resync",
			srv.SubscriberVersion("frontend-1"), srv.Version())
	}
}

func names(eps []*cluster.Pod) []string {
	out := make([]string, len(eps))
	for i, p := range eps {
		out[i] = p.Name()
	}
	return out
}
