package mesh

import (
	"strings"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
	"meshlayer/internal/trace"
)

// testbed: gateway -> frontend -> backend (2 replicas v1/v2).
type testbed struct {
	sched *simnet.Scheduler
	cl    *cluster.Cluster
	m     *Mesh
	gw    *Gateway
	fe    *Sidecar
	b1    *Sidecar
	b2    *Sidecar
}

// buildBed wires the testbed. backendHandler runs in both replicas; it
// receives the pod so tests can tell replicas apart.
func buildBed(t *testing.T, cfg Config, backendHandler func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response))) *testbed {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	cl := cluster.New(n)

	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	fePod := cl.AddPod(cluster.PodSpec{Name: "frontend-1", Labels: map[string]string{"app": "frontend"}})
	b1Pod := cl.AddPod(cluster.PodSpec{Name: "backend-1", Labels: map[string]string{"app": "backend", "version": "v1"}})
	b2Pod := cl.AddPod(cluster.PodSpec{Name: "backend-2", Labels: map[string]string{"app": "backend", "version": "v2"}})

	cl.AddService("frontend", 9080, map[string]string{"app": "frontend"})
	cl.AddService("backend", 9080, map[string]string{"app": "backend"})

	m := New(cl, cfg)
	gw := m.NewGateway(gwPod)
	fe := m.InjectSidecar(fePod)
	b1 := m.InjectSidecar(b1Pod)
	b2 := m.InjectSidecar(b2Pod)

	// Frontend forwards to backend and echoes its response.
	fe.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		child := httpsim.NewRequest("GET", req.Path)
		child.Headers.Set(HeaderHost, "backend")
		child.Headers.Set(trace.HeaderRequestID, req.Headers.Get(trace.HeaderRequestID))
		child.Headers.Set(trace.HeaderSpanID, req.Headers.Get(trace.HeaderSpanID))
		child.Headers.Set(HeaderPriority, req.Headers.Get(HeaderPriority))
		fe.Call(child, func(resp *httpsim.Response, err error) {
			if err != nil {
				respond(httpsim.NewResponse(httpsim.StatusBadGateway))
				return
			}
			out := resp.Clone()
			respond(out)
		})
	})

	for _, pair := range []struct {
		sc  *Sidecar
		pod *cluster.Pod
	}{{b1, b1Pod}, {b2, b2Pod}} {
		pod := pair.pod
		pair.sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			backendHandler(pod, req, respond)
		})
	}

	return &testbed{sched: s, cl: cl, m: m, gw: gw, fe: fe, b1: b1, b2: b2}
}

func echoBackend(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
	resp := httpsim.NewResponse(httpsim.StatusOK)
	resp.Headers.Set("x-backend", pod.Name())
	resp.BodyBytes = 1000
	respond(resp)
}

func extReq(path string) *httpsim.Request {
	r := httpsim.NewRequest("GET", path)
	r.Headers.Set(HeaderHost, "frontend")
	return r
}

func TestEndToEndThroughMesh(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	var got *httpsim.Response
	tb.gw.Serve(extReq("/hello"), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
	})
	tb.sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("response = %+v", got)
	}
	if !strings.HasPrefix(got.Headers.Get("x-backend"), "backend-") {
		t.Fatalf("backend header = %q", got.Headers.Get("x-backend"))
	}
	if tb.gw.Served() != 1 {
		t.Fatal("gateway served counter wrong")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			counts[r.Headers.Get("x-backend")]++
		})
		tb.sched.RunFor(100 * time.Millisecond)
	}
	tb.sched.Run()
	if counts["backend-1"] != 5 || counts["backend-2"] != 5 {
		t.Fatalf("round robin uneven: %v", counts)
	}
}

func TestHeaderRouteSelectsSubset(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	tb.m.ControlPlane().SetRouteRule(RouteRule{
		Service: "backend",
		HeaderRoutes: []HeaderRoute{
			{Header: HeaderPriority, Value: PriorityHigh, Subset: SubsetRef{Key: "version", Value: "v1"}},
			{Header: HeaderPriority, Value: PriorityLow, Subset: SubsetRef{Key: "version", Value: "v2"}},
		},
	})
	tb.gw.SetClassifier(PathClassifier(map[string]string{
		"/user":  PriorityHigh,
		"/batch": PriorityLow,
	}, PriorityHigh))

	results := map[string]string{}
	for _, path := range []string{"/user/1", "/batch/job", "/user/2", "/batch/x"} {
		path := path
		tb.gw.Serve(extReq(path), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			results[path] = r.Headers.Get("x-backend")
		})
	}
	tb.sched.Run()
	if results["/user/1"] != "backend-1" || results["/user/2"] != "backend-1" {
		t.Fatalf("high priority not pinned to v1: %v", results)
	}
	if results["/batch/job"] != "backend-2" || results["/batch/x"] != "backend-2" {
		t.Fatalf("low priority not pinned to v2: %v", results)
	}
}

func TestDefaultSubsetRoute(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	tb.m.ControlPlane().SetRouteRule(RouteRule{
		Service:       "backend",
		DefaultSubset: SubsetRef{Key: "version", Value: "v2"},
	})
	for i := 0; i < 4; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if r.Headers.Get("x-backend") != "backend-2" {
				t.Fatalf("default subset ignored: %s", r.Headers.Get("x-backend"))
			}
		})
	}
	tb.sched.Run()
}

func TestRetryOn5xxSucceeds(t *testing.T) {
	fails := map[string]int{}
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		// backend-1 always fails; backend-2 succeeds.
		if pod.Name() == "backend-1" {
			fails[pod.Name()]++
			respond(httpsim.NewResponse(httpsim.StatusInternalServerError))
			return
		}
		echoBackend(pod, req, respond)
	})
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
	})
	tb.sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("retry did not rescue the request: %+v", got)
	}
	if fails["backend-1"] == 0 {
		t.Fatal("test did not exercise the failing replica")
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	attempts := 0
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		attempts++
		respond(httpsim.NewResponse(httpsim.StatusInternalServerError))
	})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 1, RetryOn5xx: true})
	// Disable the gateway->frontend retry so only the backend budget is
	// exercised.
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{})
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) { got = r })
	tb.sched.Run()
	// The final 5xx is passed through once the budget is spent; the
	// frontend echoes it upstream.
	if got == nil || got.Status != httpsim.StatusInternalServerError {
		t.Fatalf("got %+v, want 500 after budget exhaustion", got)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (original + 1 retry)", attempts)
	}
}

func TestPerTryTimeoutFires(t *testing.T) {
	responded := 0
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		responded++
		// Never respond: the per-try timeout must fire.
	})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 1, PerTryTimeout: 200 * time.Millisecond})
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{})
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) { got = r })
	tb.sched.RunUntil(5 * time.Second)
	if got == nil || got.Status != httpsim.StatusBadGateway {
		t.Fatalf("timeout not surfaced: %+v", got)
	}
	if responded != 2 {
		t.Fatalf("attempts = %d, want 2 (original + 1 retry)", responded)
	}
}

func TestCircuitBreakerEjectsFailingReplica(t *testing.T) {
	calls := map[string]int{}
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		calls[pod.Name()]++
		if pod.Name() == "backend-1" {
			respond(httpsim.NewResponse(httpsim.StatusInternalServerError))
			return
		}
		echoBackend(pod, req, respond)
	})
	tb.m.ControlPlane().SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 3, OpenFor: time.Hour})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 2, RetryOn5xx: true})
	ok := 0
	for i := 0; i < 20; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			}
		})
		tb.sched.RunFor(50 * time.Millisecond)
	}
	tb.sched.Run()
	if ok != 20 {
		t.Fatalf("ok = %d, want 20 (breaker + retry should mask failures)", ok)
	}
	// After the breaker opens, backend-1 stops receiving traffic.
	if calls["backend-1"] > 8 {
		t.Fatalf("failing replica kept receiving calls: %v", calls)
	}
}

func TestHedgingCutsTail(t *testing.T) {
	// backend-1 is pathologically slow; hedging should rescue requests
	// that land on it.
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		if pod.Name() == "backend-1" {
			pod.Node().Network().Scheduler().After(2*time.Second, func() {
				respond(httpsim.NewResponse(httpsim.StatusOK))
			})
			return
		}
		echoBackend(pod, req, respond)
	})
	tb.m.ControlPlane().SetHedgePolicy("backend", HedgePolicy{Delay: 100 * time.Millisecond})

	var latencies []time.Duration
	for i := 0; i < 8; i++ {
		start := tb.sched.Now()
		done := false
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			latencies = append(latencies, tb.sched.Now()-start)
			done = true
		})
		tb.sched.RunFor(3 * time.Second)
		if !done {
			t.Fatal("request never completed")
		}
	}
	for _, l := range latencies {
		if l > time.Second {
			t.Fatalf("hedging failed to cut tail: latency %v", l)
		}
	}
}

func TestDistributedTraceReconstructs(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	tb.gw.Serve(extReq("/traced"), func(r *httpsim.Response, err error) {})
	tb.sched.Run()
	ids := tb.m.Tracer().TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("traces = %v", ids)
	}
	tree := tb.m.Tracer().Tree(ids[0])
	if tree == nil {
		t.Fatal("no tree")
	}
	// gateway(root) -> gateway client span -> frontend server span ->
	// frontend client span -> backend server span.
	if tree.Depth() != 5 {
		t.Fatalf("trace depth = %d, want 5\n%s", tree.Depth(), tree.Format())
	}
	if tree.Span.Service != "ingress-gateway" {
		t.Fatalf("root = %s", tree.Span.Service)
	}
}

func TestConnClassifierSplitsPools(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	tb.fe.SetConnClassifier(func(req *httpsim.Request) ConnClass {
		if req.Headers.Get(HeaderPriority) == PriorityHigh {
			return ConnClass{Name: "high", Options: transportOptions(simnet.MarkHigh)}
		}
		return ConnClass{Name: "low", Options: transportOptions(simnet.MarkLow)}
	})
	tb.gw.SetClassifier(PathClassifier(map[string]string{"/hi": PriorityHigh}, PriorityLow))
	tb.gw.Serve(extReq("/hi"), func(*httpsim.Response, error) {})
	tb.gw.Serve(extReq("/lo"), func(*httpsim.Response, error) {})
	tb.sched.Run()
	// Frontend should hold pools for both classes (to one or two
	// endpoints each depending on LB spread).
	if tb.fe.PoolSize() < 2 {
		t.Fatalf("pool size = %d, want >= 2 (split by class)", tb.fe.PoolSize())
	}
}

func TestTelemetryCountsRequests(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	for i := 0; i < 5; i++ {
		tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) {})
	}
	tb.sched.Run()
	total := tb.m.Metrics().CounterTotal("mesh_requests_total")
	if total == 0 {
		t.Fatal("no telemetry recorded")
	}
	h := tb.m.Metrics().Histogram("gateway_request_duration",
		map[string]string{"service": "ingress-gateway", "direction": "inbound"})
	if h.Count() != 5 {
		t.Fatalf("gateway histogram count = %d, want 5", h.Count())
	}
}

func TestSidecarOverheadDisabled(t *testing.T) {
	tb := buildBed(t, Config{SidecarDelayMean: -1}, echoBackend)
	var lat time.Duration
	start := tb.sched.Now()
	tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) { lat = tb.sched.Now() - start })
	tb.sched.Run()
	// With proxy overhead off, latency is pure network + scheduling.
	if lat == 0 || lat > 5*time.Millisecond {
		t.Fatalf("latency = %v, want sub-5ms with no proxy overhead", lat)
	}
}

func TestUnknownServiceError(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	req := httpsim.NewRequest("GET", "/x")
	req.Headers.Set(HeaderHost, "no-such-service")
	var gotErr error
	tb.fe.Call(req, func(r *httpsim.Response, err error) { gotErr = err })
	tb.sched.Run()
	if gotErr != ErrNoService {
		t.Fatalf("err = %v, want ErrNoService", gotErr)
	}
	req2 := httpsim.NewRequest("GET", "/x")
	var gotErr2 error
	tb.fe.Call(req2, func(r *httpsim.Response, err error) { gotErr2 = err })
	tb.sched.Run()
	if gotErr2 != ErrNoService {
		t.Fatalf("missing host header: err = %v", gotErr2)
	}
}

func TestLBPolicies(t *testing.T) {
	for _, policy := range []LBPolicy{LBRoundRobin, LBRandom, LBLeastRequest, LBEWMA} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			tb := buildBed(t, Config{Seed: 42}, echoBackend)
			tb.m.ControlPlane().SetLBPolicy("backend", policy)
			ok := 0
			for i := 0; i < 12; i++ {
				tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
					if err == nil && r.Status == httpsim.StatusOK {
						ok++
					}
				})
				tb.sched.RunFor(20 * time.Millisecond)
			}
			tb.sched.Run()
			if ok != 12 {
				t.Fatalf("policy %s: ok = %d/12", policy, ok)
			}
		})
	}
}

func TestEWMAPrefersFasterReplica(t *testing.T) {
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		delay := 2 * time.Millisecond
		if pod.Name() == "backend-1" {
			delay = 80 * time.Millisecond // consistently slow replica
		}
		pod.Node().Network().Scheduler().After(delay, func() {
			resp := httpsim.NewResponse(httpsim.StatusOK)
			resp.Headers.Set("x-backend", pod.Name())
			respond(resp)
		})
	})
	tb.m.ControlPlane().SetLBPolicy("backend", LBEWMA)
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil {
				counts[r.Headers.Get("x-backend")]++
			}
		})
		tb.sched.RunFor(100 * time.Millisecond)
	}
	tb.sched.Run()
	if counts["backend-2"] <= counts["backend-1"]*2 {
		t.Fatalf("EWMA did not prefer fast replica: %v", counts)
	}
}

func TestDuplicateSidecarPanics(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	defer func() {
		if recover() == nil {
			t.Fatal("double injection accepted")
		}
	}()
	tb.m.InjectSidecar(tb.cl.Pod("frontend-1"))
}

func TestControlPlaneValidation(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	cp := tb.m.ControlPlane()
	v := cp.Version()
	cp.SetLBPolicy("backend", LBRandom)
	if cp.Version() == v {
		t.Fatal("version not bumped")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad LB policy accepted")
			}
		}()
		cp.SetLBPolicy("backend", "bogus")
	}()
	// Every setter names a service; "" is rejected in one place (edit),
	// before anything is stored or versioned.
	v = cp.Version()
	for name, set := range map[string]func(){
		"SetRouteRule":       func() { cp.SetRouteRule(RouteRule{}) },
		"SetLBPolicy":        func() { cp.SetLBPolicy("", LBRandom) },
		"SetRetryPolicy":     func() { cp.SetRetryPolicy("", RetryPolicy{}) },
		"SetCircuitBreaker":  func() { cp.SetCircuitBreaker("", CircuitBreakerPolicy{}) },
		"SetHealthCheck":     func() { cp.SetHealthCheck("", HealthCheckPolicy{}) },
		"SetOutlierPolicy":   func() { cp.SetOutlierPolicy("", OutlierPolicy{}) },
		"SetLocalityPolicy":  func() { cp.SetLocalityPolicy("", LocalityPolicy{}) },
		"SetFallbackPolicy":  func() { cp.SetFallbackPolicy("", FallbackPolicy{}) },
		"SetHedgePolicy":     func() { cp.SetHedgePolicy("", HedgePolicy{}) },
		"SetAdmissionPolicy": func() { cp.SetAdmissionPolicy("", AdmissionPolicy{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an empty service name", name)
				}
			}()
			set()
		}()
	}
	if cp.Version() != v {
		t.Fatal("rejected setters bumped the version")
	}
	cp.SetRouteRule(RouteRule{Service: "backend"})
	if cp.RouteRuleFor("backend") == nil {
		t.Fatal("rule not stored")
	}
}
