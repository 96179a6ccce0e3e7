package mesh

import (
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
)

func TestFaultInjectionAbort(t *testing.T) {
	tb := buildBed(t, Config{Seed: 5}, echoBackend)
	tb.m.ControlPlane().SetFaultPolicy("backend", FaultPolicy{AbortProb: 1})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{}) // aborts are terminal here
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) { got = r })
	tb.sched.Run()
	// The injected 503 propagates back (the frontend echoes upstream
	// responses verbatim).
	if got == nil || got.Status != httpsim.StatusServiceUnavailable {
		t.Fatalf("got %+v, want injected 503", got)
	}
}

func TestFaultInjectionAbortProbability(t *testing.T) {
	tb := buildBed(t, Config{Seed: 6}, echoBackend)
	tb.m.ControlPlane().SetFaultPolicy("backend", FaultPolicy{AbortProb: 0.5, AbortStatus: httpsim.StatusInternalServerError})
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{})
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{})
	ok, bad := 0, 0
	for i := 0; i < 60; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			} else {
				bad++
			}
		})
		tb.sched.RunFor(50 * time.Millisecond)
	}
	tb.sched.Run()
	if ok == 0 || bad == 0 {
		t.Fatalf("ok=%d bad=%d: 50%% abort should split outcomes", ok, bad)
	}
	if ok < 15 || bad < 15 {
		t.Fatalf("ok=%d bad=%d: far from 50/50", ok, bad)
	}
}

func TestFaultInjectionDelay(t *testing.T) {
	tb := buildBed(t, Config{Seed: 7, SidecarDelayMean: -1}, echoBackend)
	tb.m.ControlPlane().SetFaultPolicy("backend", FaultPolicy{DelayProb: 1, Delay: 300 * time.Millisecond})
	var lat time.Duration
	start := tb.sched.Now()
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) { lat = tb.sched.Now() - start })
	tb.sched.Run()
	if lat < 300*time.Millisecond {
		t.Fatalf("latency %v, want >= 300ms injected delay", lat)
	}
}

func TestMirroringShadowsTraffic(t *testing.T) {
	// Mirror backend calls to a shadow service; primary responses are
	// unaffected and the shadow sees the copies.
	shadowSeen := 0
	tb := buildBed(t, Config{Seed: 8}, echoBackend)
	shadowPod := tb.cl.AddPod(cluster.PodSpec{Name: "shadow-1", Labels: map[string]string{"app": "shadow"}})
	tb.cl.AddService("shadow", 9080, map[string]string{"app": "shadow"})
	ssc := tb.m.InjectSidecar(shadowPod)
	ssc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		if req.Headers.Get(HeaderShadow) != "true" {
			t.Fatal("shadow header missing")
		}
		shadowSeen++
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	tb.m.ControlPlane().SetMirrorPolicy("backend", MirrorPolicy{To: "shadow", Fraction: 1})

	ok := 0
	for i := 0; i < 10; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			}
		})
		tb.sched.RunFor(100 * time.Millisecond)
	}
	tb.sched.Run()
	if ok != 10 {
		t.Fatalf("primary path broken by mirroring: ok=%d", ok)
	}
	if shadowSeen != 10 {
		t.Fatalf("shadow saw %d, want 10", shadowSeen)
	}
	if tb.m.Metrics().CounterTotal("mesh_mirrored_total") != 10 {
		t.Fatal("mirror telemetry missing")
	}
}

func TestPolicySetterValidation(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	cp := tb.m.ControlPlane()
	for name, set := range map[string]func(){
		"mirror fraction > 1":      func() { cp.SetMirrorPolicy("backend", MirrorPolicy{To: "x", Fraction: 2}) },
		"mirror policy for no one": func() { cp.SetMirrorPolicy("", MirrorPolicy{}) },
		"fault policy for no one":  func() { cp.SetFaultPolicy("", FaultPolicy{}) },
		"rate limit for no one":    func() { cp.SetRateLimit("", RateLimitPolicy{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			set()
		}()
	}
}

func TestRateLimitRejectsExcess(t *testing.T) {
	tb := buildBed(t, Config{Seed: 9}, echoBackend)
	tb.m.ControlPlane().SetRateLimit("frontend", RateLimitPolicy{RPS: 5, Burst: 2})
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{}) // don't retry 429s away
	ok, limited := 0, 0
	// Burst 20 requests instantly: only the bucket depth passes.
	for i := 0; i < 20; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			switch {
			case err == nil && r.Status == httpsim.StatusOK:
				ok++
			case err == nil && r.Status == httpsim.StatusTooManyRequests:
				limited++
			}
		})
	}
	tb.sched.Run()
	if limited == 0 {
		t.Fatal("no requests rate-limited")
	}
	if ok == 0 || ok > 5 {
		t.Fatalf("ok = %d, want 1..5 (bucket depth 2 + slight refill)", ok)
	}
}

func TestRateLimitRefills(t *testing.T) {
	tb := buildBed(t, Config{Seed: 10}, echoBackend)
	tb.m.ControlPlane().SetRateLimit("frontend", RateLimitPolicy{RPS: 10, Burst: 1})
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{})
	ok := 0
	// One request every 200ms at 10 RPS refill: all admitted.
	for i := 0; i < 10; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			}
		})
		tb.sched.RunFor(200 * time.Millisecond)
	}
	tb.sched.Run()
	if ok != 10 {
		t.Fatalf("ok = %d, want 10 (rate below limit)", ok)
	}
}
