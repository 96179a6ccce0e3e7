package mesh

import (
	"errors"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// A matching header route wins over the rule's DefaultSubset; a request
// it does not match takes the default.
func TestWeightedRouteHeaderOverrides(t *testing.T) {
	tb := buildBed(t, Config{Seed: 22}, echoBackend)
	tb.m.ControlPlane().SetRouteRule(RouteRule{
		Service: "backend",
		HeaderRoutes: []HeaderRoute{
			{Header: HeaderPriority, Value: PriorityHigh, Subset: SubsetRef{Key: "version", Value: "v1"}},
		},
		DefaultSubset: SubsetRef{Key: "version", Value: "v2"},
	})
	tb.gw.SetClassifier(PathClassifier(map[string]string{"/hi": PriorityHigh}, PriorityLow))
	for i := 0; i < 6; i++ {
		path, want := "/hi", "backend-1"
		if i%2 == 1 {
			path, want = "/lo", "backend-2"
		}
		tb.gw.Serve(extReq(path), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Headers.Get("x-backend"); got != want {
				t.Fatalf("%s went to %s, want %s", path, got, want)
			}
		})
		tb.sched.RunFor(50 * time.Millisecond)
	}
	tb.sched.Run()
}

func TestCertRotatesAtExpiry(t *testing.T) {
	tb := buildBed(t, Config{Seed: 24}, echoBackend)
	issued := tb.m.Metrics().Counter(MetricCertsIssuedTotal, metrics.Labels{"service": "frontend"})

	// Prime the frontend's cert.
	tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) {})
	tb.sched.Run()
	if tb.fe.identity == nil {
		t.Fatal("no cert issued on the first call")
	}
	serial, before := tb.fe.identity.Serial, issued.Value()

	// Past the TTL, the next outbound call presents a fresh cert.
	tb.sched.RunFor(DefaultCertTTL + time.Second)
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) { got = r })
	tb.sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("post-expiry traffic failed: %+v", got)
	}
	if tb.fe.identity.Serial == serial {
		t.Fatal("cert was not rotated at expiry")
	}
	if n := issued.Value() - before; n != 1 {
		t.Fatalf("%s{service=frontend} grew by %d, want 1", MetricCertsIssuedTotal, n)
	}
}

func TestCertValidation(t *testing.T) {
	var c *Cert
	if c.Valid("x", 0) {
		t.Fatal("nil cert valid")
	}
	c = &Cert{Service: "a", Serial: 1, NotAfter: 100}
	if !c.Valid("a", 50) || c.Valid("b", 50) || c.Valid("a", 150) {
		t.Fatal("validity rules wrong")
	}
	if !(&Cert{Service: "a"}).Valid("a", 100*DefaultCertTTL) {
		t.Fatal("zero NotAfter expired")
	}
}

func TestUnreadyPodDrained(t *testing.T) {
	tb := buildBed(t, Config{Seed: 25}, echoBackend)
	tb.cl.Pod("backend-1").SetReady(false)
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil {
				counts[r.Headers.Get("x-backend")]++
			}
		})
		tb.sched.RunFor(50 * time.Millisecond)
	}
	tb.sched.Run()
	if counts["backend-1"] != 0 {
		t.Fatalf("unready pod served traffic: %v", counts)
	}
	if counts["backend-2"] != 8 {
		t.Fatalf("remaining pod did not absorb load: %v", counts)
	}
	// Readiness restored: traffic returns.
	tb.cl.Pod("backend-1").SetReady(true)
	for i := 0; i < 4; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil {
				counts[r.Headers.Get("x-backend")]++
			}
		})
		tb.sched.RunFor(50 * time.Millisecond)
	}
	tb.sched.Run()
	if counts["backend-1"] == 0 {
		t.Fatalf("pod never served after readiness restored: %v", counts)
	}
}

func TestPartitionedPodRecoveredByRetries(t *testing.T) {
	tb := buildBed(t, Config{Seed: 26}, echoBackend)
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 2, PerTryTimeout: 300 * time.Millisecond})
	tb.m.ControlPlane().SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Hour})
	tb.cl.Pod("backend-1").Partition(true)

	ok := 0
	for i := 0; i < 10; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			}
		})
		tb.sched.RunFor(2 * time.Second)
	}
	tb.sched.Run()
	if ok != 10 {
		t.Fatalf("ok = %d/10; retries+breaker should mask the partition", ok)
	}
	if !tb.cl.Pod("backend-1").Partitioned() {
		t.Fatal("partition flag lost")
	}
	// Heal the partition; breaker eventually lets traffic back (not
	// asserted: OpenFor is an hour). Basic restore sanity:
	tb.cl.Pod("backend-1").Partition(false)
	if tb.cl.Pod("backend-1").Partitioned() {
		t.Fatal("partition not cleared")
	}
}

// --- httpsim timeout / ErrTimeout interplay with retries and hedging ---

func TestPerTryTimeoutRetryRecovers(t *testing.T) {
	// backend-1 swallows requests; the per-try timeout surfaces
	// ErrTimeout and the retry lands on backend-2.
	tb := buildBed(t, Config{Seed: 27}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		if pod.Name() == "backend-1" {
			return // never responds
		}
		echoBackend(pod, req, respond)
	})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 2, PerTryTimeout: 100 * time.Millisecond})

	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatalf("retry did not mask the timeout: %v", err)
		}
		got = r
	})
	tb.sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("response = %+v", got)
	}
	if got.Headers.Get("x-backend") != "backend-2" {
		t.Fatalf("served by %s, want the healthy replica", got.Headers.Get("x-backend"))
	}
}

func TestPerTryTimeoutExhaustionReturnsErrTimeout(t *testing.T) {
	// Every replica swallows; once retries are exhausted the caller
	// sees ErrTimeout (wrapped or not — errors.Is must hold).
	tb := buildBed(t, Config{Seed: 28}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 1, PerTryTimeout: 50 * time.Millisecond})

	var gotErr error
	fired := 0
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
		fired++
		gotErr = err
	})
	tb.sched.Run()
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
	// The frontend's app maps the upstream error to 502 before the
	// gateway sees it, so probe the frontend sidecar directly.
	child := httpsim.NewRequest("GET", "/probe")
	child.Headers.Set(HeaderHost, "backend")
	var direct error
	tb.fe.Call(child, func(r *httpsim.Response, err error) { direct = err })
	tb.sched.Run()
	if !errors.Is(direct, ErrTimeout) {
		t.Fatalf("direct call error = %v, want ErrTimeout", direct)
	}
	_ = gotErr
}

func TestHedgeRacesSlowReplica(t *testing.T) {
	// backend-1 answers after 1s, backend-2 immediately. With a 100ms
	// hedge the redundant attempt wins long before the slow reply.
	tb := buildBed(t, Config{Seed: 29}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		if pod.Name() == "backend-1" {
			pod.Exec(time.Second, func() { echoBackend(pod, req, respond) })
			return
		}
		echoBackend(pod, req, respond)
	})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{})
	tb.m.ControlPlane().SetHedgePolicy("backend", HedgePolicy{Delay: 100 * time.Millisecond})

	var got *httpsim.Response
	var done time.Duration
	fired := 0
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		fired++
		got = r
		done = tb.sched.Now()
	})
	tb.sched.Run()
	if fired != 1 || got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("fired=%d response=%+v", fired, got)
	}
	if got.Headers.Get("x-backend") != "backend-2" {
		t.Fatalf("served by %s, want the hedged fast replica", got.Headers.Get("x-backend"))
	}
	if done >= time.Second {
		t.Fatalf("finished at %v; hedge did not beat the slow replica", done)
	}
}

func TestTimeoutCondemnsPooledConnection(t *testing.T) {
	// A per-try timeout aborts the pooled connection; the next call
	// must transparently re-dial rather than reuse the dead conn.
	seen := 0
	tb := buildBed(t, Config{Seed: 30}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		seen++
		if seen == 1 {
			return // swallow the first request -> client times out
		}
		echoBackend(pod, req, respond)
	})
	cp := tb.m.ControlPlane()
	// Pin to backend-1 so both requests share one pooled connection.
	cp.SetRouteRule(RouteRule{Service: "backend", DefaultSubset: SubsetRef{Key: "version", Value: "v1"}})
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0, PerTryTimeout: 100 * time.Millisecond})

	first := httpsim.NewRequest("GET", "/a")
	first.Headers.Set(HeaderHost, "backend")
	var firstErr error
	tb.fe.Call(first, func(r *httpsim.Response, err error) { firstErr = err })
	tb.sched.Run()
	if !errors.Is(firstErr, ErrTimeout) {
		t.Fatalf("first call error = %v, want ErrTimeout", firstErr)
	}
	var condemned *transport.Conn
	tb.fe.ForEachPool(func(class string, dst simnet.Addr, conn *transport.Conn) { condemned = conn })

	second := httpsim.NewRequest("GET", "/b")
	second.Headers.Set(HeaderHost, "backend")
	var got *httpsim.Response
	tb.fe.Call(second, func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatalf("second call failed: %v", err)
		}
		got = r
	})
	tb.sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("second response = %+v", got)
	}
	var fresh *transport.Conn
	tb.fe.ForEachPool(func(class string, dst simnet.Addr, conn *transport.Conn) { fresh = conn })
	if fresh == condemned {
		t.Fatal("condemned connection was reused")
	}
	if tb.fe.PoolSize() != 1 {
		t.Fatalf("pool size = %d, want the dead conn replaced in place", tb.fe.PoolSize())
	}
}

// --- Partition(false) restore semantics + E12 x E14 interplay ---

func TestPartitionRestoreRecoversInFlightConnection(t *testing.T) {
	// A request issued into a partition hangs on transport
	// retransmission; healing the partition must let the SAME pooled
	// connection deliver it — no mesh-level retry, no timeout, no
	// re-dial.
	tb := buildBed(t, Config{Seed: 33}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.SetRouteRule(RouteRule{Service: "backend", DefaultSubset: SubsetRef{Key: "version", Value: "v1"}})
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0}) // no PerTryTimeout either

	tb.cl.Pod("backend-1").Partition(true)
	tb.sched.At(500*time.Millisecond, func() { tb.cl.Pod("backend-1").Partition(false) })

	var got *httpsim.Response
	var gotErr error
	var doneAt time.Duration
	tb.gw.Serve(extReq("/inflight"), func(r *httpsim.Response, err error) {
		got, gotErr, doneAt = r, err, tb.sched.Now()
	})
	tb.sched.Run()

	if gotErr != nil || got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("response = %+v err = %v", got, gotErr)
	}
	if doneAt < 500*time.Millisecond {
		t.Fatalf("completed at %v, before the partition healed", doneAt)
	}
	if doneAt > 3*time.Second {
		t.Fatalf("completed at %v, retransmission should recover within ~2 RTOs", doneAt)
	}

	// Subsequent requests ride the same restored connection.
	var conn0 *transport.Conn
	tb.fe.ForEachPool(func(class string, dst simnet.Addr, c *transport.Conn) { conn0 = c })
	got = nil
	tb.gw.Serve(extReq("/later"), func(r *httpsim.Response, err error) { got, gotErr = r, err })
	tb.sched.Run()
	if gotErr != nil || got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("post-heal response = %+v err = %v", got, gotErr)
	}
	var conn1 *transport.Conn
	pools := 0
	tb.fe.ForEachPool(func(class string, dst simnet.Addr, c *transport.Conn) { conn1 = c; pools++ })
	if pools != 1 || conn1 != conn0 {
		t.Fatalf("pools = %d, conn reused = %v; restore must not re-dial", pools, conn1 == conn0)
	}
}

func TestAdmissionShedsWhenPartitionConcentratesLoad(t *testing.T) {
	// E12 x E14 interplay: partitioning one replica concentrates the
	// offered load on the survivor, whose admission control starts
	// shedding — overload protection backstopping the resilience path.
	tb := buildBed(t, Config{Seed: 34}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(5*time.Millisecond, func() { respond(httpsim.NewResponse(httpsim.StatusOK)) })
	})
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 2, PerTryTimeout: 50 * time.Millisecond, RetryOn5xx: true})
	cp.SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Hour})
	cp.SetAdmissionPolicy("backend", AdmissionPolicy{
		Enabled: true, QueueLimit: 4,
		InitialConcurrency: 1, MinConcurrency: 1, MaxConcurrency: 1,
	})

	// 250 req/s split over two replicas is under capacity (5ms service,
	// concurrency 1); after the partition the survivor sees all of it.
	for i := 0; i < 250; i++ {
		at := time.Duration(i) * 4 * time.Millisecond
		tb.sched.At(at, func() {
			tb.gw.Serve(extReq("/load"), func(*httpsim.Response, error) {})
		})
	}
	var shedBefore uint64
	tb.sched.At(300*time.Millisecond, func() {
		shedBefore = tb.m.Metrics().CounterTotal("mesh_admission_shed_total")
		tb.cl.Pod("backend-2").Partition(true)
	})
	tb.sched.Run()

	shedAfter := tb.m.Metrics().CounterTotal("mesh_admission_shed_total")
	if shedBefore != 0 {
		t.Fatalf("shed %d requests before the partition (load should fit)", shedBefore)
	}
	if shedAfter == 0 {
		t.Fatal("no sheds after the partition concentrated load on one replica")
	}
}
