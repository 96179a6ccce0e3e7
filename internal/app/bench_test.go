package app

import (
	"runtime"
	"testing"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
)

// BenchmarkChainRequest serves one request per iteration through a
// 16-hop chain, 33 spans of it. Besides -benchmem's allocations it
// reports retained-B/req: the live heap each request leaves behind
// after a GC, which is what the trace collector and the metric
// histograms keep for the rest of a run.
func BenchmarkChainRequest(b *testing.B) {
	c := BuildChain(ChainConfig{Depth: 16})
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Gateway.Serve(NewChainRequest(), func(*httpsim.Response, error) {})
		c.Sched.Run()
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(int64(ms.HeapAlloc)-int64(before))/float64(b.N), "retained-B/req")
	runtime.KeepAlive(c)
}

// TestChainHopAllocs is the allocation budget of one request through the
// chain, the twin of simnet's TestPodAttachCostIndependentOfFleet for
// the data plane: a hop's span names, series lookups and trace storage
// once cost 40 allocations per 16-hop request (513), header maps and
// forwarding closures 135 more (473), the closures carrying a hop's
// proxy traversals, attempt deadline and fan-out join 143 more (339),
// and a span object per hop 33 more (196, now a collector row that
// comes in 32 KB chunks), and a change that brings any of them back
// shows here before it shows in the benchmark. The social row pins a
// fan-out hop's join at the cost of a forwarding one (334 with
// closures).
func TestChainHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	social, err := BuildDAG(SocialNetworkSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		d      *DAG
		req    func() *httpsim.Request
		budget float64
	}{
		{"a 4-hop chain", BuildChain(ChainConfig{Depth: 4}), NewChainRequest, 43},
		{"a 16-hop chain", BuildChain(ChainConfig{Depth: 16}), NewChainRequest, 163},
		{"the social network", social, social.NewDAGRequest, 169},
	} {
		n := testing.AllocsPerRun(100, func() {
			tc.d.Gateway.Serve(tc.req(), func(*httpsim.Response, error) {})
			tc.d.Sched.Run()
		})
		t.Logf("%s: %v allocations", tc.name, n)
		if n > tc.budget {
			t.Errorf("one request through %s allocates %v times, budget %v: "+
				"this is rpc_chain's allocs_per_op, and what a request keeps is its live_heap_mb", tc.name, n, tc.budget)
		}
	}
}

// TestChainRetainedAllocs is the budget of what a request through a
// 16-hop chain leaves live for the rest of a run, the retained-B/req
// BenchmarkChainRequest reports and rpc_chain's live_heap_mb grows
// with: its 33 spans as 64 B collector rows, its trace's ID and index
// entry, 2,193 B in all. A hundred requests first fill the pools,
// series and name table every later request reuses.
func TestChainRetainedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under -race are not the program's")
	}
	const requests, budget = 2000, 2400
	c := BuildChain(ChainConfig{Depth: 16})
	serve := func(n int) {
		for i := 0; i < n; i++ {
			c.Gateway.Serve(NewChainRequest(), func(*httpsim.Response, error) {})
			c.Sched.Run()
		}
	}
	serve(100)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	serve(requests)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(int64(ms.HeapAlloc)-int64(before)) / requests
	runtime.KeepAlive(c)
	t.Logf("a 16-hop chain: %.0f retained B a request", per)
	if per > budget {
		t.Errorf("a request through a 16-hop chain leaves %.0f B live, budget %d: "+
			"this is what rpc_chain's live_heap_mb grows with", per, budget)
	}
}

// TestRecordsReturnToFreeLists runs ten rounds of eight concurrent
// requests through a chain and through the social network. After each
// drain the mesh's attempt free list holds as many records, and every
// replica's join free list the very records, it held after the first
// round: a record released twice shows as growth, and one never
// released as a record the next round had to make (an attempt record
// made per request also shows in TestChainHopAllocs). The proxies add
// no delay, so every round runs the same schedule and needs the same
// number of records at its peak.
func TestRecordsReturnToFreeLists(t *testing.T) {
	spec := SocialNetworkSpec()
	spec.Mesh.SidecarDelayMean = -1
	social, err := BuildDAG(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *DAG
		req  func() *httpsim.Request
	}{
		{"a 16-hop chain", BuildChain(ChainConfig{Depth: 16, Mesh: mesh.Config{SidecarDelayMean: -1}}), NewChainRequest},
		{"the social network", social, social.NewDAGRequest},
	} {
		const rounds, concurrent = 10, 8
		var attempts int
		joins := map[*replica]map[*join]bool{}
		for round := 1; round <= rounds; round++ {
			ok := 0
			for i := 0; i < concurrent; i++ {
				tc.d.Gateway.Serve(tc.req(), func(resp *httpsim.Response, err error) {
					if err == nil && resp.Status == httpsim.StatusOK {
						ok++
					}
				})
			}
			tc.d.Sched.Run()
			if ok != concurrent {
				t.Fatalf("%s, round %d: %d of %d requests answered 200", tc.name, round, ok, concurrent)
			}
			for _, reps := range tc.d.replicas {
				for _, r := range reps {
					if round == 1 {
						joins[r] = map[*join]bool{}
						for _, j := range r.joins {
							joins[r][j] = true
						}
						continue
					}
					if len(r.joins) != len(joins[r]) {
						t.Fatalf("%s, round %d: %s's join free list holds %d records, %d after round 1",
							tc.name, round, r.pod.Name(), len(r.joins), len(joins[r]))
					}
					for _, j := range r.joins {
						if !joins[r][j] {
							t.Fatalf("%s, round %d: %s made a join record after round 1", tc.name, round, r.pod.Name())
						}
					}
				}
			}
			if round == 1 {
				attempts = tc.d.Mesh.FreeAttempts()
				made := 0
				for _, js := range joins {
					made += len(js)
				}
				if attempts == 0 || made == 0 {
					t.Fatalf("%s: round 1 left %d attempt and %d join records on the free lists", tc.name, attempts, made)
				}
			} else if n := tc.d.Mesh.FreeAttempts(); n != attempts {
				t.Fatalf("%s, round %d: the attempt free list holds %d records, %d after round 1", tc.name, round, n, attempts)
			}
		}
	}
}

// TestELibraryRequestAllocs is the allocation budget of the paper's own
// app: one product page (gateway, frontend, details, reviews, ratings)
// and one analytics scan (gateway, frontend, reviews, ratings, 2 MB
// back over the bottleneck), classified at the ingress. With handlers
// of its own, closures per request, the e-library cost 58 and 62;
// served by the DAG handler's pooled join records it costs 48 and 57.
func TestELibraryRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	e := BuildELibrary(DefaultELibraryConfig())
	e.Gateway.SetClassifier(Classifier())
	for _, tc := range []struct {
		req    func() *httpsim.Request
		budget float64
	}{
		{NewProductRequest, 48},
		{NewAnalyticsRequest, 57},
	} {
		n := testing.AllocsPerRun(100, func() {
			e.Gateway.Serve(tc.req(), func(*httpsim.Response, error) {})
			e.Sched.Run()
		})
		t.Logf("%s: %v allocations", tc.req().Path, n)
		if n > tc.budget {
			t.Errorf("one %s request allocates %v times, budget %v: this is mixed_paper's allocs_per_op",
				tc.req().Path, n, tc.budget)
		}
	}
}
