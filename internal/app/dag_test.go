package app

import (
	"strings"
	"testing"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/trace"
)

func TestDAGValidate(t *testing.T) {
	cases := map[string]DAGSpec{
		"empty":                   {},
		"no entry":                {Services: []ServiceSpec{{Name: "a"}}, Entry: "b"},
		"unnamed":                 {Services: []ServiceSpec{{}}, Entry: ""},
		"duplicate":               {Services: []ServiceSpec{{Name: "a"}, {Name: "a"}}, Entry: "a"},
		"unknown call":            {Services: []ServiceSpec{{Name: "a", Calls: calls("zz")}}, Entry: "a"},
		"self cycle":              {Services: []ServiceSpec{{Name: "a", Calls: calls("a")}}, Entry: "a"},
		"negative service time":   {Services: []ServiceSpec{{Name: "a", ServiceTime: -time.Millisecond}}, Entry: "a"},
		"negative response bytes": {Services: []ServiceSpec{{Name: "a", ResponseBytes: -1}}, Entry: "a"},
		"negative replicas":       {Services: []ServiceSpec{{Name: "a", Replicas: -1}}, Entry: "a"},
		"negative workers":        {Services: []ServiceSpec{{Name: "a", Workers: -1}}, Entry: "a"},
		"negative uplink rate":    {Services: []ServiceSpec{{Name: "a", UplinkRate: -1}}, Entry: "a"},
		"relative call path": {Services: []ServiceSpec{
			{Name: "a", Calls: []Call{{Service: "b", Path: "items"}}},
			{Name: "b"},
		}, Entry: "a"},
		"relative path prefix": {Services: []ServiceSpec{{Name: "a", Paths: []PathSpec{{Prefix: "scan"}}}}, Entry: "a"},
		"negative path time":   {Services: []ServiceSpec{{Name: "a", Paths: []PathSpec{{Prefix: "/s", ServiceTime: -1}}}}, Entry: "a"},
		"negative path bytes":  {Services: []ServiceSpec{{Name: "a", Paths: []PathSpec{{Prefix: "/s", ResponseBytes: -1}}}}, Entry: "a"},
		"path calls unknown":   {Services: []ServiceSpec{{Name: "a", Paths: []PathSpec{{Prefix: "/s", Calls: calls("zz")}}}}, Entry: "a"},
		"cycle through a path": {Services: []ServiceSpec{
			{Name: "a", Calls: calls("b")},
			{Name: "b", Paths: []PathSpec{{Prefix: "/s", Calls: calls("a")}}},
		}, Entry: "a"},
		"unnamed zone":   {Services: []ServiceSpec{{Name: "a"}}, Entry: "a", Zones: []Zone{{Region: "r"}}},
		"duplicate zone": {Services: []ServiceSpec{{Name: "a"}}, Entry: "a", Zones: []Zone{{Name: "z"}, {Name: "z", Region: "r"}}},
		"longer cycle": {Services: []ServiceSpec{
			{Name: "a", Calls: calls("b")},
			{Name: "b", Calls: calls("c")},
			{Name: "c", Calls: calls("a")},
		}, Entry: "a"},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Fatalf("%s: invalid spec accepted", name)
		}
	}
	if err := SocialNetworkSpec().Validate(); err != nil {
		t.Fatalf("social spec invalid: %v", err)
	}
	if err := ECommerceSpec(1, 80*time.Millisecond).Validate(); err != nil {
		t.Fatalf("e-commerce spec invalid: %v", err)
	}
	for _, cfg := range []ELibraryConfig{{}, {Zones: 3}, {Regions: 3}} {
		if err := eLibrarySpec(cfg).Validate(); err != nil {
			t.Fatalf("e-library spec %+v invalid: %v", cfg, err)
		}
	}
}

func TestDAGBuildRejectsBadSpec(t *testing.T) {
	if _, err := BuildDAG(DAGSpec{}); err == nil {
		t.Fatal("bad spec built")
	}
}

func TestSocialNetworkEndToEnd(t *testing.T) {
	d, err := BuildDAG(SocialNetworkSpec())
	if err != nil {
		t.Fatal(err)
	}
	var got *httpsim.Response
	var lat time.Duration
	start := d.Sched.Now()
	d.Gateway.Serve(d.NewDAGRequest(), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
		lat = d.Sched.Now() - start
	})
	d.Sched.Run()
	if got == nil || got.Status != httpsim.StatusOK {
		t.Fatalf("response = %+v", got)
	}
	if lat == 0 || lat > 100*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
	// All 13 services participate in the trace.
	ids := d.Mesh.Tracer().TraceIDs()
	tree := d.Mesh.Tracer().Tree(ids[0])
	seen := map[string]bool{}
	tree.Walk(func(n *trace.TreeNode, _ int) { seen[n.Span.Service] = true })
	for _, svc := range []string{"compose", "home-timeline", "graph-db", "post-db", "url-shorten", "media"} {
		if !seen[svc] {
			t.Fatalf("service %s missing from trace:\n%s", svc, tree.Format())
		}
	}
	// The deepest chain (compose -> home-timeline -> social-graph ->
	// graph-cache -> graph-db) gives 1 + 2*5 span levels.
	if tree.Depth() != 11 {
		t.Fatalf("trace depth = %d, want 11", tree.Depth())
	}
}

func TestDAGCriticalPathDecomposes(t *testing.T) {
	d, err := BuildDAG(SocialNetworkSpec())
	if err != nil {
		t.Fatal(err)
	}
	d.Gateway.Serve(d.NewDAGRequest(), func(*httpsim.Response, error) {})
	d.Sched.Run()
	ids := d.Mesh.Tracer().TraceIDs()
	tree := d.Mesh.Tracer().Tree(ids[0])
	steps := trace.CriticalPath(tree)
	if len(steps) < 5 {
		t.Fatalf("critical path too short: %d", len(steps))
	}
	var sum time.Duration
	for _, s := range steps {
		sum += s.SelfTime
	}
	if sum != tree.Span.Duration() {
		t.Fatalf("self times %v != total %v", sum, tree.Span.Duration())
	}
	if !strings.Contains(trace.FormatCriticalPath(steps), "compose") {
		t.Fatal("critical path missing root")
	}
}

func TestDAGReplicasSpread(t *testing.T) {
	d, err := BuildDAG(SocialNetworkSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d.Gateway.Serve(d.NewDAGRequest(), func(*httpsim.Response, error) {})
		d.Sched.RunFor(100 * time.Millisecond)
	}
	d.Sched.Run()
	// compose has 2 replicas behind round robin: both must have worked.
	if d.Cluster.Pod("compose-1").Workers().Executed() == 0 ||
		d.Cluster.Pod("compose-2").Workers().Executed() == 0 {
		t.Fatal("compose replicas not both used")
	}
}

// serveOnce sends one request at path to the DAG's entry and returns
// the status the entry answered with and how long it took. Retries are
// off everywhere, so each service answers each request once, and calls
// past the entry time out after 50 ms.
func serveOnce(t *testing.T, d *DAG, path string) (status int, latency time.Duration) {
	t.Helper()
	for _, svc := range d.Cluster.Services() {
		pol := mesh.RetryPolicy{PerTryTimeout: 50 * time.Millisecond}
		if svc.Name() == d.Entry {
			pol = mesh.RetryPolicy{}
		}
		d.Mesh.ControlPlane().SetRetryPolicy(svc.Name(), pol)
	}
	req := httpsim.NewRequest("GET", path)
	req.Headers.Set(mesh.HeaderHost, d.Entry)
	answers := 0
	start := d.Sched.Now()
	d.Gateway.Serve(req, func(resp *httpsim.Response, err error) {
		if err != nil {
			t.Fatalf("gateway: %v", err)
		}
		answers++
		status, latency = resp.Status, d.Sched.Now()-start
	})
	d.Sched.Run()
	if answers != 1 {
		t.Fatalf("request answered %d times, want once", answers)
	}
	return status, latency
}

func mustBuild(t *testing.T, spec DAGSpec) *DAG {
	t.Helper()
	d, err := BuildDAG(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDAGHandlerContract pins how the one DAG handler answers: after
// every child has replied, with the worst status among them, a
// transport error counting as 502; each edge at its own path or the
// inbound one; the priority header copied by the entry service alone;
// the tail drawn once, before the compute it lengthens.
func TestDAGHandlerContract(t *testing.T) {
	abort := mesh.FaultPolicy{AbortProb: 1, AbortStatus: httpsim.StatusServiceUnavailable}

	t.Run("leaf 5xx surfaces through a chain", func(t *testing.T) {
		d := BuildChain(ChainConfig{Depth: 3})
		d.Mesh.ControlPlane().SetFaultPolicy("svc-2", abort)
		if st, _ := serveOnce(t, d, "/chain"); st != httpsim.StatusServiceUnavailable {
			t.Fatalf("entry answered %d, want the leaf's 503", st)
		}
	})

	t.Run("worst status of a fan-out, after the last reply", func(t *testing.T) {
		// a's fast child fails at once; its slow child answers 200
		// 10 ms later. The answer must wait for the slow one and
		// still report the failure.
		d := mustBuild(t, DAGSpec{Entry: "a", Services: []ServiceSpec{
			{Name: "a", Calls: calls("fast", "slow")},
			{Name: "fast"},
			{Name: "slow", ServiceTime: 10 * time.Millisecond},
		}})
		d.Mesh.ControlPlane().SetFaultPolicy("fast", abort)
		st, lat := serveOnce(t, d, "/x")
		if st != httpsim.StatusServiceUnavailable {
			t.Fatalf("entry answered %d, want the fast child's 503", st)
		}
		if lat < 10*time.Millisecond {
			t.Fatalf("entry answered after %v, before its 10 ms child replied", lat)
		}
	})

	t.Run("transport error is 502 at the parent", func(t *testing.T) {
		d := BuildChain(ChainConfig{Depth: 2})
		d.Cluster.Pod("svc-1-1").Partition(true)
		if st, _ := serveOnce(t, d, "/chain"); st != httpsim.StatusBadGateway {
			t.Fatalf("entry answered %d, want 502 for its partitioned child", st)
		}
	})

	t.Run("named path reaches the callee, empty inherits", func(t *testing.T) {
		d := mustBuild(t, DAGSpec{Entry: "a", Services: []ServiceSpec{
			{Name: "a", Calls: []Call{{Service: "named", Path: "/items"}, {Service: "inherits"}}},
			{Name: "named"},
			{Name: "inherits"},
		}})
		serveOnce(t, d, "/in")
		want := map[string]string{"a": "GET /in", "named": "GET /items", "inherits": "GET /in"}
		for _, span := range d.Mesh.Tracer().Trace(d.Mesh.Tracer().TraceIDs()[0]) {
			if w, ok := want[span.Service]; ok && !span.Client {
				if span.Name != w {
					t.Errorf("%s served %q, want %q", span.Service, span.Name, w)
				}
				delete(want, span.Service)
			}
		}
		if len(want) != 0 {
			t.Fatalf("no server span for %v", want)
		}
	})

	t.Run("entry alone forwards priority", func(t *testing.T) {
		d := BuildChain(ChainConfig{Depth: 3})
		d.Gateway.SetClassifier(mesh.PathClassifier(nil, mesh.PriorityHigh))
		serveOnce(t, d, "/chain")
		want := map[string]string{"svc-0": mesh.PriorityHigh, "svc-1": mesh.PriorityHigh, "svc-2": ""}
		for _, span := range d.Mesh.Tracer().Trace(d.Mesh.Tracer().TraceIDs()[0]) {
			if w, ok := want[span.Service]; ok && !span.Client {
				if span.Priority != w {
					t.Errorf("%s served priority %q, want %q", span.Service, span.Priority, w)
				}
				delete(want, span.Service)
			}
		}
		if len(want) != 0 {
			t.Fatalf("no server span for %v", want)
		}
	})

	t.Run("first matching path prefix wins", func(t *testing.T) {
		d := mustBuild(t, DAGSpec{Entry: "a", Services: []ServiceSpec{
			{Name: "a", ResponseBytes: 1, Paths: []PathSpec{
				{Prefix: "/scan", ResponseBytes: 2, Calls: calls("b")},
				{Prefix: "/scan/deep", ResponseBytes: 3},
			}},
			{Name: "b"},
		}})
		for _, tc := range []struct {
			path   string
			bytes  int
			bCalls uint64
		}{{"/scan/deep/1", 2, 1}, {"/page", 1, 1}} {
			req := httpsim.NewRequest("GET", tc.path)
			req.Headers.Set(mesh.HeaderHost, "a")
			var got int
			d.Gateway.Serve(req, func(resp *httpsim.Response, err error) {
				if err == nil {
					got = resp.BodyBytes
				}
			})
			d.Sched.Run()
			if n := d.Cluster.Pod("b-1").Workers().Executed(); got != tc.bytes || n != tc.bCalls {
				t.Errorf("%s: answered %d B after b served %d requests, want %d B after %d", tc.path, got, n, tc.bytes, tc.bCalls)
			}
		}
	})

	t.Run("tail drawn once, before execution", func(t *testing.T) {
		build := func(tail func() time.Duration) *DAG {
			return mustBuild(t, DAGSpec{Entry: "a", Mesh: mesh.Config{Seed: 3}, Services: []ServiceSpec{
				{Name: "a", ServiceTime: time.Millisecond, Tail: tail},
			}})
		}
		_, base := serveOnce(t, build(nil), "/x")
		var d *DAG
		draws := 0
		d = build(func() time.Duration {
			if n := d.Cluster.Pod("a-1").Workers().Executed(); n != 0 {
				t.Errorf("tail drawn after %d executions started, want before the first", n)
			}
			draws++
			return 5 * time.Millisecond
		})
		_, lat := serveOnce(t, d, "/x")
		if draws != 1 {
			t.Fatalf("tail drawn %d times for one request", draws)
		}
		if lat-base != 5*time.Millisecond {
			t.Fatalf("a 5 ms tail added %v to the latency", lat-base)
		}
	})
}
