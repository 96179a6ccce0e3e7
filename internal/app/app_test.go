package app

import (
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/trace"
)

func TestELibraryProductPage(t *testing.T) {
	e := BuildELibrary(DefaultELibraryConfig())
	var got *httpsim.Response
	var lat time.Duration
	start := e.Sched.Now()
	e.Gateway.Serve(NewProductRequest(), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
		lat = e.Sched.Now() - start
	})
	e.Sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("response = %+v", got)
	}
	if got.BodyBytes != LSFrontendBytes {
		t.Fatalf("body = %d", got.BodyBytes)
	}
	// Unloaded product page: a handful of ms (service times + proxies).
	if lat > 50*time.Millisecond {
		t.Fatalf("unloaded latency = %v", lat)
	}
}

func TestELibraryAnalytics(t *testing.T) {
	e := BuildELibrary(DefaultELibraryConfig())
	var got *httpsim.Response
	var lat time.Duration
	start := e.Sched.Now()
	e.Gateway.Serve(NewAnalyticsRequest(), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
		lat = e.Sched.Now() - start
	})
	e.Sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("response = %+v", got)
	}
	// The 2MB ratings scan must traverse the 1 Gbps bottleneck:
	// serialization alone is ~16ms.
	if lat < 16*time.Millisecond {
		t.Fatalf("analytics latency %v too fast for a 2MB response over 1Gbps", lat)
	}
}

func TestELibraryCallTree(t *testing.T) {
	e := BuildELibrary(DefaultELibraryConfig())
	e.Gateway.SetClassifier(Classifier())
	e.Gateway.Serve(NewProductRequest(), func(*httpsim.Response, error) {})
	e.Sched.Run()
	ids := e.Mesh.Tracer().TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("traces = %d", len(ids))
	}
	tree := e.Mesh.Tracer().Tree(ids[0])
	if tree == nil {
		t.Fatal("no tree")
	}
	// Services on the path: gateway, frontend, details, reviews,
	// ratings must all appear.
	seen := map[string]bool{}
	tree.Walk(func(n *trace.TreeNode, _ int) { seen[n.Span.Service] = true })
	for _, svc := range []string{"ingress-gateway", "frontend", "details", "reviews", "ratings"} {
		if !seen[svc] {
			t.Fatalf("service %s missing from trace:\n%s", svc, tree.Format())
		}
	}
	// Provenance: the root span carries the priority classification.
	if got := tree.Span.Priority; got != mesh.PriorityHigh {
		t.Fatalf("root priority = %q", got)
	}
}

func TestELibraryReviewsSpreadAcrossReplicas(t *testing.T) {
	e := BuildELibrary(DefaultELibraryConfig())
	for i := 0; i < 6; i++ {
		e.Gateway.Serve(NewProductRequest(), func(*httpsim.Response, error) {})
		e.Sched.RunFor(200 * time.Millisecond)
	}
	e.Sched.Run()
	// With round robin and no routing rule, both replicas served.
	for _, p := range e.Reviews {
		if p.Workers().Executed() == 0 {
			t.Fatalf("replica %s never used", p.Name())
		}
	}
}

func TestELibraryBottleneckConfigured(t *testing.T) {
	e := BuildELibrary(DefaultELibraryConfig())
	if got := e.Ratings.Uplink().Config().Rate; got != e.Config.BottleneckRate {
		t.Fatalf("ratings uplink = %d, want bottleneck %d", got, e.Config.BottleneckRate)
	}
	if got := e.Frontend.Uplink().Config().Rate; got != cluster.DefaultLink.Rate {
		t.Fatalf("frontend uplink = %d", got)
	}
}

func TestChainDepthResponse(t *testing.T) {
	for _, depth := range []int{1, 4, 8} {
		c := BuildChain(ChainConfig{Depth: depth})
		var ok bool
		c.Gateway.Serve(NewChainRequest(), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatalf("depth %d: %v", depth, err)
			}
			ok = r.Status == httpsim.StatusOK
		})
		c.Sched.Run()
		if !ok {
			t.Fatalf("depth %d: no OK response", depth)
		}
		ids := c.Mesh.Tracer().TraceIDs()
		tree := c.Mesh.Tracer().Tree(ids[0])
		// Each hop contributes a client+server span pair.
		wantDepth := 1 + 2*depth
		if tree.Depth() != wantDepth {
			t.Fatalf("depth %d: trace depth = %d, want %d", depth, tree.Depth(), wantDepth)
		}
	}
}

func TestChainLatencyGrowsWithDepth(t *testing.T) {
	lat := func(depth int) time.Duration {
		c := BuildChain(ChainConfig{Depth: depth, Mesh: mesh.Config{Seed: 9}})
		var l time.Duration
		start := c.Sched.Now()
		c.Gateway.Serve(NewChainRequest(), func(*httpsim.Response, error) { l = c.Sched.Now() - start })
		c.Sched.Run()
		return l
	}
	l2, l16 := lat(2), lat(16)
	if l16 < 4*l2 {
		t.Fatalf("depth16 %v not clearly above depth2 %v", l16, l2)
	}
}

func TestChainValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("depth 0 accepted")
		}
	}()
	BuildChain(ChainConfig{Depth: 0})
}

func TestECommerceStorefront(t *testing.T) {
	ec, err := BuildDAG(ECommerceSpec(4, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for i := 0; i < 10; i++ {
		ec.Gateway.Serve(NewStorefrontRequest(), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				okCount++
			}
		})
		ec.Sched.RunFor(500 * time.Millisecond)
	}
	ec.Sched.Run()
	if okCount != 10 {
		t.Fatalf("ok = %d/10", okCount)
	}
	// db is shared by cart and recs: it must have served both.
	if ec.Cluster.Pod("db-1").Workers().Executed() < 20 {
		t.Fatalf("db executions = %d, want >= 20", ec.Cluster.Pod("db-1").Workers().Executed())
	}
}

func TestCopyTrace(t *testing.T) {
	parent := httpsim.NewRequest("GET", "/p")
	parent.Headers.Set(trace.HeaderRequestID, "req-1")
	parent.Headers.Set(trace.HeaderSpanID, "ab")
	child := httpsim.NewRequest("GET", "/c")
	CopyTrace(parent, child)
	if child.Headers.Get(trace.HeaderRequestID) != "req-1" || child.Headers.Get(trace.HeaderSpanID) != "ab" {
		t.Fatal("trace context not copied")
	}
	// No trace context: nothing copied, no panic.
	CopyTrace(httpsim.NewRequest("GET", "/x"), child)
}
