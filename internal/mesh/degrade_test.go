package mesh

import (
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
)

// Tests for graceful degradation (fallback synthesis, the fallback
// deadline) and the retry-budget double-charge regression.

func TestFallbackSynthesizesOnTerminalFailure(t *testing.T) {
	tb := buildBed(t, Config{Seed: 3}, countingBackend(map[string]int{}, func(*cluster.Pod) bool {
		return true // every backend call 500s
	}))
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 1, RetryOn5xx: true})
	cp.SetFallbackPolicy("backend", FallbackPolicy{Enabled: true})

	var got *httpsim.Response
	var gotErr error
	tb.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) { got, gotErr = resp, err })
	tb.sched.Run()

	if gotErr != nil || got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("resp=%v err=%v, want synthesized 200", got, gotErr)
	}
	if got.BodyBytes != 256 {
		t.Fatalf("degraded body = %d B, want the 256 B stub", got.BodyBytes)
	}
	if got.Headers.Get(HeaderDegraded) != "backend" {
		t.Fatalf("%s = %q, want backend", HeaderDegraded, got.Headers.Get(HeaderDegraded))
	}
	if n := tb.m.Metrics().CounterTotal("mesh_fallback_served_total"); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	if n := tb.m.Metrics().CounterTotal("gateway_degraded_total"); n != 1 {
		t.Fatalf("gateway degraded count = %d, want 1", n)
	}
}

func TestFallbackDeadlineBeatsRetryLadder(t *testing.T) {
	// Both backends black-holed: without the fallback deadline the call
	// only fails after MaxRetries x PerTryTimeout = 3s; the 400ms
	// deadline must serve degraded instead.
	tb := buildBed(t, Config{Seed: 4}, countingBackend(map[string]int{}, nil))
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 2, PerTryTimeout: time.Second})
	cp.SetFallbackPolicy("backend", FallbackPolicy{Enabled: true})
	tb.cl.Pod("backend-1").Partition(true)
	tb.cl.Pod("backend-2").Partition(true)

	var done time.Duration
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) {
		done, got = tb.sched.Now(), resp
	})
	tb.sched.RunUntil(5 * time.Second)

	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("resp = %v, want degraded 200", got)
	}
	if done < 400*time.Millisecond || done > 410*time.Millisecond {
		t.Fatalf("degraded response took %v, want ~400ms (the fallback deadline)", done)
	}
}

// TestFallbackBeforeFaultDelaySkipsUpstream: an injected delay longer
// than the fallback deadline ends in the degraded answer at the
// deadline, and the call never reaches the upstream afterwards, whose
// answer nobody would read.
func TestFallbackBeforeFaultDelaySkipsUpstream(t *testing.T) {
	hits := map[string]int{}
	tb := buildBed(t, Config{Seed: 7}, countingBackend(hits, nil))
	cp := tb.m.ControlPlane()
	cp.SetFallbackPolicy("backend", FallbackPolicy{Enabled: true})
	cp.SetFaultPolicy("backend", FaultPolicy{DelayProb: 1, Delay: 500 * time.Millisecond})

	var done time.Duration
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) {
		done, got = tb.sched.Now(), resp
	})
	tb.sched.Run()

	if got == nil || got.Status != httpsim.StatusOK || got.Headers.Get(HeaderDegraded) != "backend" {
		t.Fatalf("resp = %v, want the degraded 200", got)
	}
	if done < fallbackAfter || done > fallbackAfter+10*time.Millisecond {
		t.Fatalf("degraded response took %v, want ~%v (the fallback deadline)", done, fallbackAfter)
	}
	if n := hits["backend-1"] + hits["backend-2"]; n != 0 {
		t.Fatalf("backend served %d requests after the fallback answered, want 0", n)
	}
	if free, made := tb.m.FreeCalls(); free != made {
		t.Fatalf("%d call records free of %d made", free, made)
	}
}

func TestFallbackDisabledLeavesErrors(t *testing.T) {
	tb := buildBed(t, Config{Seed: 5}, countingBackend(map[string]int{}, func(*cluster.Pod) bool {
		return true
	}))
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{MaxRetries: 0})

	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(resp *httpsim.Response, err error) { got = resp })
	tb.sched.Run()
	// buildBed's frontend translates child-call errors to 502; either
	// way, no fallback means no 200 and no degraded stamp.
	if got != nil && got.Status < 500 {
		t.Fatalf("resp = %v, want failure without fallback policy", got)
	}
	if n := tb.m.Metrics().CounterTotal("mesh_fallback_served_total"); n != 0 {
		t.Fatalf("fallbacks = %d, want 0", n)
	}
}

// TestHedgedFailureSpendsOneRetryToken is the regression test for the
// double-charge bug: a hedged call whose two in-flight attempts both
// fail must spend exactly ONE budget token and schedule exactly ONE
// retry — previously each settling attempt charged the budget and
// scheduled its own retry.
func TestHedgedFailureSpendsOneRetryToken(t *testing.T) {
	var tb *testbed
	tb = buildBed(t, Config{Seed: 6}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		// Delay the failure so the hedge launches while the original is
		// still in flight, then both settle failed within the backoff
		// window.
		tb.sched.After(30*time.Millisecond, func() {
			respond(httpsim.NewResponse(httpsim.StatusInternalServerError))
		})
	})
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("backend", RetryPolicy{
		MaxRetries: 2, RetryOn5xx: true,
		BackoffBase: 50 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		BudgetRatio: 0.001, BudgetBurst: 1, // exactly one token available
	})
	cp.SetHedgePolicy("backend", HedgePolicy{Delay: 5 * time.Millisecond})
	// No gateway-side retries: each frontend retry would spawn a fresh
	// logical backend call and muddy the budget accounting under test.
	cp.SetRetryPolicy("frontend", RetryPolicy{MaxRetries: 0})

	tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) {})
	tb.sched.RunUntil(2 * time.Second)

	// One token, so one retry fires; the concurrent hedge failure must
	// neither burn the budget (no exhaustion) nor add a second retry.
	// (Assert per-service: the gateway's own frontend call retries the
	// resulting 502 under its default policy.)
	reg := tb.m.Metrics()
	if n := reg.Counter("mesh_retries_total", metrics.Labels{"service": "backend"}).Value(); n != 1 {
		t.Fatalf("backend retries = %d, want exactly 1", n)
	}
	if n := reg.Counter("mesh_retry_budget_exhausted_total", metrics.Labels{"service": "backend"}).Value(); n != 0 {
		t.Fatalf("backend budget exhausted %d times: hedge failure double-charged the budget", n)
	}
}
