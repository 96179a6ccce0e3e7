package meshlayer

import (
	"testing"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
)

// TestDegradedFallbackPropagation crashes every ratings replica and
// checks the reviews->ratings fallback serves the page, with the
// x-mesh-degraded provenance stamp carried back through reviews and
// frontend to the gateway (two app hops, same mechanism as the paper's
// priority header).
func TestDegradedFallbackPropagation(t *testing.T) {
	acfg := app.DefaultELibraryConfig()
	acfg.Zones = 3
	s := NewScenario(ScenarioConfig{Seed: 7, App: acfg})
	e := s.App
	cp := e.Mesh.ControlPlane()
	applyZoneDefenses(cp, 3)

	for _, rt := range e.AllRatings {
		rt.Partition(true)
		rt.Host().ResetConns()
	}

	var (
		gotResp *httpsim.Response
		gotErr  error
		fired   bool
	)
	e.Sched.After(100*time.Millisecond, func() {
		e.Gateway.Serve(app.NewProductRequest(), func(resp *httpsim.Response, err error) {
			gotResp, gotErr = resp, err
			fired = true
		})
	})
	e.Sched.RunFor(30 * time.Second)

	if !fired {
		t.Fatal("request never completed")
	}
	if gotErr != nil {
		t.Fatalf("expected degraded success, got error %v", gotErr)
	}
	if gotResp.Status != httpsim.StatusOK {
		t.Fatalf("status = %d, want 200", gotResp.Status)
	}
	if got := gotResp.Headers.Get(mesh.HeaderDegraded); got != "ratings" {
		t.Fatalf("%s = %q, want %q", mesh.HeaderDegraded, got, "ratings")
	}
	if n := e.Mesh.Metrics().CounterTotal(mesh.MetricFallbackServedTotal); n == 0 {
		t.Fatal("no fallback recorded")
	}
	if n := e.Mesh.Metrics().CounterTotal(mesh.MetricGatewayDegradedTotal); n != 1 {
		t.Fatalf("gateway_degraded_total = %d, want 1", n)
	}
}

// TestDegradedHeaderAbsentOnSuccess checks a healthy mesh serves with
// no provenance stamp and no fallback.
func TestDegradedHeaderAbsentOnSuccess(t *testing.T) {
	acfg := app.DefaultELibraryConfig()
	acfg.Zones = 3
	s := NewScenario(ScenarioConfig{Seed: 7, App: acfg})
	e := s.App
	applyZoneDefenses(e.Mesh.ControlPlane(), 3)

	var gotResp *httpsim.Response
	var gotErr error
	e.Sched.After(100*time.Millisecond, func() {
		e.Gateway.Serve(app.NewProductRequest(), func(resp *httpsim.Response, err error) {
			gotResp, gotErr = resp, err
		})
	})
	e.Sched.RunFor(10 * time.Second)

	if gotErr != nil || gotResp == nil || gotResp.Status != httpsim.StatusOK {
		t.Fatalf("healthy serve failed: resp=%v err=%v", gotResp, gotErr)
	}
	if got := gotResp.Headers.Get(mesh.HeaderDegraded); got != "" {
		t.Fatalf("unexpected degraded stamp %q", got)
	}
	if n := e.Mesh.Metrics().CounterTotal(mesh.MetricGatewayDegradedTotal); n != 0 {
		t.Fatalf("gateway_degraded_total = %d, want 0", n)
	}
}

// TestProvenanceLeavesNoTimer: with every cross-layer optimisation that
// arms no timer of its own on (SDN's controller polls by design) and a
// fallback that fires, the scheduler is empty once the last response
// has landed — the priority and degraded-origin records are held in
// tables that never touch the scheduler.
func TestProvenanceLeavesNoTimer(t *testing.T) {
	s := NewScenario(ScenarioConfig{Seed: 7, Opt: Optimization{Routing: true, Scavenger: true, TC: true}})
	e := s.App
	e.Mesh.ControlPlane().SetFallbackPolicy("ratings", mesh.FallbackPolicy{Enabled: true})
	for _, rt := range e.AllRatings {
		rt.Partition(true)
		rt.Host().ResetConns()
	}

	var got *httpsim.Response
	e.Gateway.Serve(app.NewProductRequest(), func(resp *httpsim.Response, err error) {
		if err != nil {
			t.Fatalf("product request failed: %v", err)
		}
		got = resp
	})
	e.Sched.RunFor(30 * time.Second)

	if got == nil || got.Headers.Get(mesh.HeaderDegraded) != "ratings" {
		t.Fatalf("response %v: want one degraded by the ratings fallback", got)
	}
	if st := s.CrossLayer.Stats(); st.ProvenanceEntries == 0 {
		t.Fatal("no priority provenance recorded")
	}
	if n := e.Sched.Pending(); n != 0 {
		t.Fatalf("%d events pending after the last response", n)
	}
}
