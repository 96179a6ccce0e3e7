package core

import (
	"testing"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/sdn"
	"meshlayer/internal/simnet"
	"meshlayer/internal/tc"
	"meshlayer/internal/trace"
	"meshlayer/internal/transport"
	"meshlayer/internal/workload"
)

// enableAll installs the full cross-layer controller on an e-library.
func enableAll(e *app.ELibrary) *Controller {
	return Enable(Config{
		Mesh:            e.Mesh,
		EnableRouting:   true,
		EnableScavenger: true,
		EnableTC:        true,
		PriorityPools: map[string]PoolPair{
			"reviews": {
				High: mesh.SubsetRef{Key: "version", Value: "v1"},
				Low:  mesh.SubsetRef{Key: "version", Value: "v2"},
			},
		},
	})
}

func TestConfigValidation(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	for name, bad := range map[string]Config{
		"nil mesh":    {},
		"sdn no ctrl": {Mesh: e.Mesh, EnableSDN: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			Enable(bad)
		}()
	}
}

func TestProvenancePropagation(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	e.Gateway.SetClassifier(app.Classifier())
	c := enableAll(e)

	e.Gateway.Serve(app.NewProductRequest(), func(*httpsim.Response, error) {})
	e.Sched.Run()

	st := c.Stats()
	if st.Recorded == 0 {
		t.Fatal("no provenance recorded")
	}
	// The reviews app drops the priority header before calling ratings;
	// the sidecar must restore it from provenance (§4.3 (2)).
	if st.Stamped == 0 {
		t.Fatal("priority never stamped onto a child request")
	}
	// Note: ProvenanceEntries is 0 here — draining the scheduler also
	// runs the GC sweeps past the TTL. Entry lifetime is covered by
	// TestProvenanceGC.
}

func TestRoutingPinsPriorityPools(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	e.Gateway.SetClassifier(app.Classifier())
	enableAll(e)

	for i := 0; i < 6; i++ {
		e.Gateway.Serve(app.NewProductRequest(), func(*httpsim.Response, error) {})
		e.Gateway.Serve(app.NewAnalyticsRequest(), func(*httpsim.Response, error) {})
		e.Sched.RunFor(300 * time.Millisecond)
	}
	e.Sched.Run()

	// reviews-1 = high pool (LS only); reviews-2 = low pool (LI only).
	r1 := e.Reviews[0].Workers().Executed()
	r2 := e.Reviews[1].Workers().Executed()
	if r1 != 6 || r2 != 6 {
		t.Fatalf("pool executions r1=%d r2=%d, want 6/6", r1, r2)
	}
}

func TestTCInstalled(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	c := enableAll(e)
	wantQdiscs := len(e.Cluster.Pods()) * 2
	if c.Stats().QdiscsInstalled != wantQdiscs {
		t.Fatalf("qdiscs = %d, want %d", c.Stats().QdiscsInstalled, wantQdiscs)
	}
	if _, ok := e.Ratings.NIC().Qdisc().(*tc.NearStrict); !ok {
		t.Fatalf("ratings NIC qdisc is %T, want *tc.NearStrict", e.Ratings.NIC().Qdisc())
	}
}

func TestMarksReachBottleneckQdisc(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	e.Gateway.SetClassifier(app.Classifier())
	enableAll(e)

	for i := 0; i < 4; i++ {
		e.Gateway.Serve(app.NewProductRequest(), func(*httpsim.Response, error) {})
		e.Gateway.Serve(app.NewAnalyticsRequest(), func(*httpsim.Response, error) {})
		e.Sched.RunFor(time.Second)
	}
	e.Sched.Run()

	q := e.Ratings.NIC().Qdisc().(*tc.NearStrict)
	if q.Sent(0) == 0 {
		t.Fatal("no high-priority packets through the bottleneck qdisc")
	}
	if q.Sent(1) == 0 {
		t.Fatal("no low-priority packets through the bottleneck qdisc")
	}
}

func TestScavengerAppliedToLowClass(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	e.Gateway.SetClassifier(app.Classifier())
	enableAll(e)

	e.Gateway.Serve(app.NewProductRequest(), func(*httpsim.Response, error) {})
	e.Gateway.Serve(app.NewAnalyticsRequest(), func(*httpsim.Response, error) {})
	e.Sched.Run()

	// reviews-2 (low pool) talks to ratings on a scavenger conn.
	classes := map[string]string{}
	lowSC := e.Mesh.Sidecar("reviews-2")
	lowSC.ForEachPool(func(class string, dst simnet.Addr, conn *transport.Conn) {
		if dst == e.Ratings.Addr() {
			classes[class] = conn.CCName()
		}
	})
	if classes["priority-low"] != "ledbat" {
		t.Fatalf("low-class conn CC = %q, want ledbat (pools: %v)", classes["priority-low"], classes)
	}
	// reviews-1 (high pool) must stay on best-effort.
	hiSC := e.Mesh.Sidecar("reviews-1")
	hiSC.ForEachPool(func(class string, dst simnet.Addr, conn *transport.Conn) {
		if dst == e.Ratings.Addr() && conn.CCName() != "reno" {
			t.Fatalf("high-class conn CC = %s", conn.CCName())
		}
	})
}

func TestMarkToNameRoundTrip(t *testing.T) {
	for _, p := range []string{mesh.PriorityHigh, mesh.PriorityLow} {
		if nameOf(markOf(p)) != p {
			t.Fatalf("round trip broke for %s", p)
		}
	}
	if markOf("") != simnet.MarkDefault || nameOf(simnet.MarkDefault) != "" {
		t.Fatal("default mapping wrong")
	}
	if markOf("bogus") != simnet.MarkDefault {
		t.Fatal("unknown priority must map to default")
	}
}

// TestProvenanceGC: a provenance record outlives an idle mesh —
// nothing runs while no request does — and the first sweep its table
// runs once provTTL has passed deletes it, while the records of the
// requests that drove the sweep stay.
func TestProvenanceGC(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	e.Gateway.SetClassifier(app.Classifier())
	c := enableAll(e)
	first := app.NewProductRequest()
	e.Gateway.Serve(first, func(*httpsim.Response, error) {})
	tid := first.Headers.Get(trace.HeaderRequestID)
	e.Sched.RunFor(time.Second)
	if _, ok := c.prov.Get(tid); !ok {
		t.Fatal("the classified request left no record")
	}
	e.Sched.RunFor(provTTL)
	if _, ok := c.prov.Get(tid); !ok {
		t.Fatal("the record went while no request ran")
	}
	for i := 0; i < 300; i++ {
		if _, ok := c.prov.Get(tid); !ok {
			if c.Stats().ProvenanceEntries == 0 {
				t.Fatal("the sweep deleted live records")
			}
			return
		}
		e.Gateway.Serve(app.NewProductRequest(), func(*httpsim.Response, error) {})
		e.Sched.RunFor(100 * time.Millisecond)
	}
	t.Fatalf("record past provTTL survived %d more records", c.Stats().Recorded)
}

// TestCrossLayerImprovesLatencySensitiveTail is the integration test of
// the headline claim: under a mixed workload, enabling cross-layer
// prioritization must substantially cut LS tail latency while barely
// affecting LI.
func TestCrossLayerImprovesLatencySensitiveTail(t *testing.T) {
	run := func(optimize bool) (ls, li *workload.Results) {
		e := app.BuildELibrary(app.DefaultELibraryConfig())
		e.Gateway.SetClassifier(app.Classifier())
		if optimize {
			enableAll(e)
		}
		spec := func(name string, newReq func() *httpsim.Request, seed int64) workload.Spec {
			return workload.Spec{
				Name: name, Rate: 40, NewRequest: newReq, Seed: seed,
				Warmup: 2 * time.Second, Measure: 10 * time.Second, Cooldown: time.Second,
			}
		}
		gLS := workload.Start(e.Sched, e.Gateway, spec("ls", app.NewProductRequest, 11))
		gLI := workload.Start(e.Sched, e.Gateway, spec("li", app.NewAnalyticsRequest, 22))
		e.Sched.RunUntil(14 * time.Second)
		return gLS.Results(), gLI.Results()
	}

	lsBase, liBase := run(false)
	lsOpt, liOpt := run(true)

	if lsBase.Measured == 0 || lsOpt.Measured == 0 {
		t.Fatal("no measurements")
	}
	if lsBase.Errors > lsBase.Measured/20 || lsOpt.Errors > lsOpt.Measured/20 {
		t.Fatalf("too many errors: base=%d opt=%d", lsBase.Errors, lsOpt.Errors)
	}
	// Headline: optimized LS p99 must be at least 1.5x better.
	if float64(lsBase.P99()) < 1.5*float64(lsOpt.P99()) {
		t.Fatalf("LS p99 improvement < 1.5x: base=%v opt=%v", lsBase.P99(), lsOpt.P99())
	}
	// LI must still complete and not collapse (paper: <5%% p99 cost;
	// we allow 30%% in the small test window before the bench measures
	// it precisely).
	if liOpt.Measured == 0 {
		t.Fatal("LI starved")
	}
	if float64(liOpt.P99()) > 1.3*float64(liBase.P99()) {
		t.Fatalf("LI p99 degraded too much: base=%v opt=%v", liBase.P99(), liOpt.P99())
	}
	t.Logf("LS p99: base=%v opt=%v; LI p99: base=%v opt=%v",
		lsBase.P99(), lsOpt.P99(), liBase.P99(), liOpt.P99())
}

// TestSDNSteeringUnderFullOptimization verifies optimization (3d) end
// to end: with the full stack enabled and heavy low-priority load, the
// SDN controller steers scavenger flows onto the alternate ratings
// path while high-priority flows stay on the primary.
func TestSDNSteeringUnderFullOptimization(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	e.Gateway.SetClassifier(app.Classifier())

	alt := e.Cluster.AddUplink(e.Ratings, simnet.LinkConfig{Rate: 500 * simnet.Mbps, Delay: 40 * time.Microsecond})
	ctrl := sdn.New(e.Net, 50*time.Millisecond)
	ctrl.AddTERoute(sdn.TERoute{
		Node:      e.Ratings.Node(),
		Primary:   e.Ratings.NIC(),
		Alternate: alt.A(),
		Threshold: 0.3,
	})
	Enable(Config{
		Mesh:            e.Mesh,
		EnableRouting:   true,
		EnableScavenger: true,
		EnableTC:        true,
		EnableSDN:       true,
		SDN:             ctrl,
		PriorityPools: map[string]PoolPair{
			"reviews": {
				High: mesh.SubsetRef{Key: "version", Value: "v1"},
				Low:  mesh.SubsetRef{Key: "version", Value: "v2"},
			},
		},
	})

	spec := func(name string, newReq func() *httpsim.Request, seed int64) workload.Spec {
		return workload.Spec{Name: name, Rate: 40, NewRequest: newReq, Seed: seed,
			Warmup: time.Second, Measure: 8 * time.Second, Cooldown: time.Second}
	}
	workload.Start(e.Sched, e.Gateway, spec("ls", app.NewProductRequest, 31))
	workload.Start(e.Sched, e.Gateway, spec("li", app.NewAnalyticsRequest, 32))
	e.Sched.RunUntil(11 * time.Second)

	if ctrl.FlowCount() == 0 {
		t.Fatal("no flows registered with the SDN controller")
	}
	if ctrl.Moves() == 0 {
		t.Fatal("SDN controller never steered under heavy LI load")
	}
	if alt.A().TxPackets() == 0 && alt.B().TxPackets() == 0 {
		t.Fatal("alternate path carried nothing")
	}
}
