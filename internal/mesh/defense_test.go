package mesh

import (
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
)

// Tests for the self-healing defenses: active health checking,
// outlier detection (failure-rate, latency, panic threshold), retry
// budgets, backoff, and the half-open circuit breaker.

// countingBackend returns a handler that tallies application hits per
// pod and answers per the fail function (nil = always succeed).
func countingBackend(hits map[string]int, fail func(pod *cluster.Pod) bool) func(*cluster.Pod, *httpsim.Request, func(*httpsim.Response)) {
	return func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		hits[pod.Name()]++
		if fail != nil && fail(pod) {
			respond(httpsim.NewResponse(httpsim.StatusInternalServerError))
			return
		}
		resp := httpsim.NewResponse(httpsim.StatusOK)
		resp.Headers.Set("x-backend", pod.Name())
		respond(resp)
	}
}

// fire issues one gateway request at the given virtual time and tallies
// the outcome.
func fire(tb *testbed, at time.Duration, okCount, failCount *int) {
	tb.sched.At(at, func() {
		tb.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) {
			if err == nil && resp.Status < 500 {
				*okCount++
			} else {
				*failCount++
			}
		})
	})
}

func TestHealthCheckRemovesAndRestoresEndpoint(t *testing.T) {
	hits := map[string]int{}
	tb := buildBed(t, Config{Seed: 5}, countingBackend(hits, nil))
	cp := tb.m.ControlPlane()
	cp.SetHealthCheck("backend", HealthCheckPolicy{Enabled: true})
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0, PerTryTimeout: 100 * time.Millisecond})

	var ok, fail int
	// Priming request starts the frontend's health-check loop, whose
	// probes then go out every 25ms from ~0.7ms on.
	fire(tb, 0, &ok, &fail)
	// Crash backend-1 at 1s. The probes sent at ~1000.7ms and
	// ~1025.7ms time out 20ms later, and the second failure marks it
	// unhealthy at ~1045.7ms.
	b1 := tb.cl.Pod("backend-1").Addr()
	unhealthyAt := func(at time.Duration, want bool) {
		tb.sched.At(at, func() {
			if got := tb.fe.endpoints[b1].unhealthy; got != want {
				t.Errorf("backend-1 unhealthy at %v = %v, want %v", at, got, want)
			}
		})
	}
	tb.sched.At(time.Second, func() { tb.cl.Pod("backend-1").Partition(true) })
	unhealthyAt(1045*time.Millisecond, false)
	unhealthyAt(1046*time.Millisecond, true)
	var duringB1 int
	tb.sched.At(1200*time.Millisecond, func() { duringB1 = hits["backend-1"] })
	for i := 0; i < 10; i++ {
		fire(tb, 1200*time.Millisecond+time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	var afterB1 int
	tb.sched.At(1400*time.Millisecond, func() { afterB1 = hits["backend-1"] })
	// Heal at 1.5s; the clean probes of ~1500.7ms and ~1525.7ms restore
	// it, to a 1.5s slow-start ramp.
	tb.sched.At(1500*time.Millisecond, func() { tb.cl.Pod("backend-1").Partition(false) })
	unhealthyAt(1525*time.Millisecond, true)
	unhealthyAt(1526*time.Millisecond, false)
	for i := 0; i < 10; i++ {
		fire(tb, 2*time.Second+time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	tb.sched.RunUntil(3 * time.Second)

	if afterB1 != duringB1 {
		t.Fatalf("backend-1 hit %d times while marked unhealthy", afterB1-duringB1)
	}
	if fail != 0 {
		t.Fatalf("%d requests failed with health checking active", fail)
	}
	if hits["backend-1"] == afterB1 {
		t.Fatal("backend-1 never restored to rotation after heal")
	}
	if st := tb.fe.endpoints[b1]; st.warmUntil-st.warmSince != 1500*time.Millisecond {
		t.Fatalf("slow-start ramp = %v, want 1.5s", st.warmUntil-st.warmSince)
	}
	if got := tb.m.Metrics().CounterTotal("mesh_health_transitions_total"); got < 2 {
		t.Fatalf("health transitions = %d, want >= 2", got)
	}
}

func TestOutlierEjectsErrorRateEndpoint(t *testing.T) {
	hits := map[string]int{}
	tb := buildBed(t, Config{Seed: 6}, countingBackend(hits, nil))
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0})
	cp.SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 1 << 30, OpenFor: time.Hour})
	cp.SetOutlierPolicy("backend", OutlierPolicy{Enabled: true})
	// backend-1's application fails every request — the sidecar (and
	// its health probes) stay healthy, only passive detection sees it.
	tb.b1.SetServerFault(ServerFault{Prob: 1, Seed: 3})

	var ok, fail int
	for i := 0; i < 60; i++ {
		fire(tb, time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	var faultsMid uint64
	tb.sched.At(450*time.Millisecond, func() {
		faultsMid = tb.m.Metrics().CounterTotal("mesh_server_fault_injected_total")
	})
	// The outlier sweep re-arms forever; drive a bounded window.
	tb.sched.RunUntil(2 * time.Second)

	if got := tb.m.Metrics().CounterTotal("mesh_outlier_ejections_total"); got == 0 {
		t.Fatal("no outlier ejection recorded")
	}
	// The first sweep ejects backend-1, so requests from 450ms on
	// never reach it (no further fault injections)...
	faultsEnd := tb.m.Metrics().CounterTotal("mesh_server_fault_injected_total")
	if faultsMid == 0 || faultsEnd != faultsMid {
		t.Fatalf("faults mid=%d end=%d: backend-1 still in rotation after ejection", faultsMid, faultsEnd)
	}
	// ...and every external request succeeds (the gateway's
	// frontend-level retry rides over pre-ejection 502s).
	if fail != 0 || ok != 60 {
		t.Fatalf("ok=%d fail=%d", ok, fail)
	}
}

// slowAwareBackend runs each request through the pod's compute model
// so SetExecFactor shows up as latency.
func slowAwareBackend(hits map[string]int) func(*cluster.Pod, *httpsim.Request, func(*httpsim.Response)) {
	return func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		hits[pod.Name()]++
		pod.Exec(2*time.Millisecond, func() {
			respond(httpsim.NewResponse(httpsim.StatusOK))
		})
	}
}

func TestOutlierEjectsSlowPodByLatency(t *testing.T) {
	hits := map[string]int{}
	tb := buildBed(t, Config{Seed: 7}, slowAwareBackend(hits))
	cp := tb.m.ControlPlane()
	cp.SetOutlierPolicy("backend", OutlierPolicy{Enabled: true})
	// backend-1 is 50x slower but still answers 200s: a gray failure
	// invisible to success-rate logic.
	tb.cl.Pod("backend-1").SetExecFactor(50)

	var ok, fail int
	for i := 0; i < 60; i++ {
		fire(tb, time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	tb.sched.RunUntil(700 * time.Millisecond)

	if got := tb.m.Metrics().CounterTotal("mesh_outlier_ejections_total"); got == 0 {
		t.Fatal("slow pod never ejected")
	}
	before := hits["backend-1"]
	// After ejection everything goes to backend-2; run a second batch
	// to prove backend-1 stays out of rotation.
	var ok2, fail2 int
	for i := 0; i < 20; i++ {
		fire(tb, 700*time.Millisecond+time.Duration(i)*10*time.Millisecond, &ok2, &fail2)
	}
	tb.sched.RunUntil(2 * time.Second)
	if hits["backend-1"] != before {
		t.Fatalf("ejected backend-1 received %d more requests", hits["backend-1"]-before)
	}
}

func TestPanicThresholdStopsEjections(t *testing.T) {
	hits := map[string]int{}
	tb := buildBed(t, Config{Seed: 8}, countingBackend(hits, nil))
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0})
	cp.SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 1 << 30, OpenFor: time.Hour})
	cp.SetOutlierPolicy("backend", OutlierPolicy{Enabled: true})
	// Both replicas fail: the first sweep ejects one, but ejecting the
	// other would drop availability below the 50% panic floor, so it
	// stays in rotation for good.
	tb.b1.SetServerFault(ServerFault{Prob: 1, Seed: 4})
	tb.b2.SetServerFault(ServerFault{Prob: 1, Seed: 5})

	var ok, fail int
	for i := 0; i < 30; i++ {
		fire(tb, time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	tb.sched.RunUntil(time.Second)

	if got := tb.m.Metrics().CounterTotal("mesh_outlier_ejections_total"); got != 1 {
		t.Fatalf("ejections = %d, want 1: the panic threshold must stop the second", got)
	}
	if got := tb.m.Metrics().CounterTotal("mesh_outlier_panic_total"); got == 0 {
		t.Fatal("panic threshold never engaged")
	}
}

// TestOutlierSweepVerdicts: one sweep over ten replicas, each with a
// set window and latency EWMA, ejects exactly the ones past outlier
// detection's thresholds — at least 3 requests, a 0.4 failure ratio, 5x
// the best peer's latency — for 3s, and stops once half the replicas
// would be out.
func TestOutlierSweepVerdicts(t *testing.T) {
	type window struct {
		total, fail int
		ewmaMs      float64
	}
	for _, c := range []struct {
		name    string
		suspect window // replica 0; the other nine answer 10 of 10 in 1ms
		eject   bool
	}{
		{"below min requests", window{2, 2, 1}, false},
		{"at min requests", window{3, 3, 1}, true},
		{"below failure ratio", window{10, 3, 1}, false},
		{"at failure ratio", window{10, 4, 1}, true},
		{"at latency factor", window{10, 0, 5}, false},
		{"past latency factor", window{10, 0, 5.5}, true},
	} {
		m, sc, pods := replicaBed(1, 10)
		m.sched.RunFor(time.Second)
		for i, p := range pods {
			w := window{10, 0, 1}
			if i == 0 {
				w = c.suspect
			}
			st := sc.epState(p.Addr())
			st.winTotal, st.winFail, st.ewma = w.total, w.fail, w.ewmaMs*float64(time.Millisecond)
		}
		sc.sweepOutliers("w", pods)
		want := time.Duration(0)
		if c.eject {
			want = 4 * time.Second // swept at 1s, out for 3s
		}
		if until := sc.endpoints[pods[0].Addr()].ejectedUntil; until != want {
			t.Errorf("%s: replica ejected until %v, want %v", c.name, until, want)
		}
	}

	m, sc, pods := replicaBed(1, 10)
	m.sched.RunFor(time.Second)
	for _, p := range pods {
		st := sc.epState(p.Addr())
		st.winTotal, st.winFail = 10, 10
	}
	sc.sweepOutliers("w", pods)
	if got := m.Metrics().CounterTotal(MetricOutlierEjectionsTotal); got != 5 {
		t.Fatalf("every replica failing: %d ejected, want 5 (the 0.5 panic floor)", got)
	}
}

func TestRetryBudgetCapsRetries(t *testing.T) {
	run := func(ratio float64) (retries, exhausted uint64) {
		hits := map[string]int{}
		tb := buildBed(t, Config{Seed: 9}, countingBackend(hits, func(*cluster.Pod) bool { return true }))
		// Disable frontend-level retries so the backend retry count is
		// exactly 30 logical calls' worth.
		tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{MaxRetries: 0})
		tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{
			MaxRetries: 3, RetryOn5xx: true,
			BudgetRatio: ratio, BudgetBurst: 2,
		})
		tb.m.ControlPlane().SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 1 << 30, OpenFor: time.Hour})
		var ok, fail int
		for i := 0; i < 30; i++ {
			fire(tb, time.Duration(i)*10*time.Millisecond, &ok, &fail)
		}
		tb.sched.Run()
		return tb.m.Metrics().CounterTotal("mesh_retries_total"),
			tb.m.Metrics().CounterTotal("mesh_retry_budget_exhausted_total")
	}

	unbudgeted, exhausted0 := run(0)
	if unbudgeted != 90 { // 30 calls x 3 retries
		t.Fatalf("unbudgeted retries = %d, want 90", unbudgeted)
	}
	if exhausted0 != 0 {
		t.Fatalf("budget exhaustion without a budget: %d", exhausted0)
	}
	budgeted, exhausted := run(0.1)
	// Burst 2 + 30 x 0.1 deposits = at most 5 authorized retries.
	if budgeted > 5 {
		t.Fatalf("budgeted retries = %d, want <= 5", budgeted)
	}
	if budgeted >= unbudgeted {
		t.Fatalf("budget did not reduce retries: %d vs %d", budgeted, unbudgeted)
	}
	if exhausted == 0 {
		t.Fatal("no budget exhaustion recorded")
	}
}

func TestBackoffDelaysRetries(t *testing.T) {
	run := func(base time.Duration) time.Duration {
		hits := map[string]int{}
		tb := buildBed(t, Config{Seed: 10}, countingBackend(hits, func(*cluster.Pod) bool { return true }))
		tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{
			MaxRetries: 3, RetryOn5xx: true,
			BackoffBase: base, BackoffMax: 8 * base,
		})
		tb.m.ControlPlane().SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 1 << 30, OpenFor: time.Hour})
		var last time.Duration
		for i := 0; i < 20; i++ {
			tb.sched.At(time.Duration(i)*5*time.Millisecond, func() {
				tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) {
					last = tb.sched.Now()
				})
			})
		}
		tb.sched.Run()
		return last
	}
	immediate := run(0)
	backed := run(10 * time.Millisecond)
	// 20 calls x 3 jittered waits each: the backoff run must finish
	// measurably later than the immediate-retry run.
	if backed < immediate+10*time.Millisecond {
		t.Fatalf("backoff run finished at %v vs immediate %v", backed, immediate)
	}
}

func TestHalfOpenTrialLimitsProbes(t *testing.T) {
	hits := map[string]int{}
	healthy := false
	tb := buildBed(t, Config{Seed: 11}, countingBackend(hits, func(p *cluster.Pod) bool {
		return p.Name() == "backend-1" && !healthy
	}))
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0})
	cp.SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 2, OpenFor: 200 * time.Millisecond})

	var ok, fail int
	// Phase 1 (0..1s): backend-1 always fails. After the breaker
	// opens, each OpenFor window admits exactly one half-open trial.
	for i := 0; i < 100; i++ {
		fire(tb, time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	var phase1 int
	tb.sched.At(1050*time.Millisecond, func() {
		phase1 = hits["backend-1"]
		healthy = true
	})
	// Phase 2 (1.1s..1.6s): backend-1 is healthy; the next trial closes
	// the breaker and it rejoins rotation.
	for i := 0; i < 50; i++ {
		fire(tb, 1100*time.Millisecond+time.Duration(i)*10*time.Millisecond, &ok, &fail)
	}
	tb.sched.Run()

	// Breaker opens after 2 failures, then ~4 open windows fit in the
	// remaining second: 1 trial each. Without half-open the old
	// behaviour re-admitted backend-1 fully (2 hits per window).
	if phase1 < 3 || phase1 > 8 {
		t.Fatalf("backend-1 hits while failing = %d, want one trial per open window", phase1)
	}
	if hits["backend-1"]-phase1 < 10 {
		t.Fatalf("backend-1 hits after recovery = %d, breaker never closed", hits["backend-1"]-phase1)
	}
}
