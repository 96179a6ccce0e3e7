package app

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
)

// BenchmarkChainRequest serves one request per iteration through a
// 16-hop chain, 33 spans of it: a new collector chunk every 1,024 spans
// and a new span-id text block every 1,024. Besides -benchmem's
// allocations it reports retained-B/req: the live heap each request
// leaves behind after a GC, which is what the trace collector and the
// metric histograms keep for the rest of a run.
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
// comes in 32 KB chunks), a span id's header text 33 more (163, now
// sliced out of one string per 1,024 ids), httpsim's responded flag
// beside its respond closure 16 (130, now a pooled server record), the
// inbound record and its bound respond method 16 (114, now one closure
// per request) and the call record 16 (98, now on the mesh's free
// list), and a change that brings any of them back shows here before
// it shows in the benchmark. The social row pins a fan-out hop's join
// at the cost of a forwarding one (334 with closures, 169 before the
// last four changes). The gateway's completion closure cost one more
// per request (now a record on the gateway's free list). Read as an
// exact mean (allocsPerRequest), a request through 4 hops, 16 hops and
// the social network costs 21.09, 81.14 and 81.13: the fractions are a
// new span-id block and a new collector chunk every 1,024 spans each
// (every 256 and 512 before rows shrank to 32 B, 21.13, 81.27 and
// 81.26) and the trace index's growth.
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
		{"a 4-hop chain", BuildChain(ChainConfig{Depth: 4}), NewChainRequest, 22},
		{"a 16-hop chain", BuildChain(ChainConfig{Depth: 16}), NewChainRequest, 82},
		{"the social network", social, social.NewDAGRequest, 82},
	} {
		n := allocsPerRequest(func() {
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

// allocsPerRequest returns the exact mean allocations of serve over 100
// calls that follow 100 warm-up calls, measured with the collector off
// and one P. testing.AllocsPerRun floors its mean, so a mean just past
// a whole number passed a budget of that number; and a collection
// mid-run emptied the sync.Pools httpsim then kept, whose records the
// next requests allocated again, so its reading moved with what else
// ran on the host.
func allocsPerRequest(serve func()) float64 {
	const warmup, runs = 100, 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < warmup; i++ {
		serve()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// TestChainAllocsIgnoreCollections serves the same chain requests
// twice, once as they come and once with two collections before each,
// and counts the allocations the requests themselves make: they must be
// equal. Records kept in a sync.Pool would fail it, because a
// collection empties the pool (the second one its victim cache too) and
// the next request allocates its records again, so a run's
// allocs_per_op would move with how often the collector ran.
func TestChainAllocsIgnoreCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(collect bool) uint64 {
		c := BuildChain(ChainConfig{Depth: 4})
		var total uint64
		var before, after runtime.MemStats
		for i := 0; i < 200; i++ {
			if collect && i >= 100 {
				runtime.GC()
				runtime.GC()
			}
			runtime.ReadMemStats(&before)
			c.Gateway.Serve(NewChainRequest(), func(*httpsim.Response, error) {})
			c.Sched.Run()
			runtime.ReadMemStats(&after)
			if i >= 100 {
				total += after.Mallocs - before.Mallocs
			}
		}
		return total
	}
	count(false) // fills what a first chain leaves for later ones
	plain, collected := count(false), count(true)
	if plain != collected {
		t.Errorf("100 chain requests allocate %d times, and %d times with two collections before each: "+
			"a collection must not change what a request allocates", plain, collected)
	}
}

// TestChainRetainedAllocs is the budget of what a request through a
// 16-hop chain leaves live for the rest of a run, the retained-B/req
// BenchmarkChainRequest reports and rpc_chain's live_heap_mb grows
// with: its 33 spans as 32 B collector rows, 1,056 B, and its trace's
// ID and index entry, about 96 B more: 1,152 B in all (2,194 B with
// 64 B rows). The budget leaves about 100 B, 3 B a span, so a row
// that grows past 32 B (8 B a span at least) fails it. A hundred
// requests first fill the pools, series and op table every later
// request reuses.
func TestChainRetainedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under -race are not the program's")
	}
	const requests, budget = 2000, 1250
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
// requests through a chain, through the social network, and through
// short chains whose policies keep a call's record held past its
// answer or its first attempt: a hedge timer that fires after the call
// finished, retries that back off, a fallback deadline that answers
// before a stalled upstream does, and an injected delay before the
// first attempt. In the retry and fallback cases the last server's
// sidecar answers without its app, through an injected server fault.
// After each drain every attempt, call and inbound record the mesh has
// made waits on its free list, and the mesh made none after the first
// round; every replica's join free list holds the very records it held
// after the first round. A record released twice shows as more free
// records than made, one never released as fewer, or as a record the
// next round had to make (an attempt, call or inbound record made per
// request also shows in TestChainHopAllocs). The proxies add no delay,
// so every round runs the same schedule and needs the same number of
// records at its peak.
func TestRecordsReturnToFreeLists(t *testing.T) {
	spec := SocialNetworkSpec()
	spec.Mesh.SidecarDelayMean = -1
	social, err := BuildDAG(spec)
	if err != nil {
		t.Fatal(err)
	}
	const last = "svc-3"
	short := func(setup func(d *DAG, cp *mesh.ControlPlane)) *DAG {
		d := BuildChain(ChainConfig{Depth: 4, Mesh: mesh.Config{SidecarDelayMean: -1}})
		setup(d, d.Mesh.ControlPlane())
		return d
	}
	lastFails := func(d *DAG, delay time.Duration) {
		for _, r := range d.replicas[last] {
			d.Mesh.Sidecar(r.pod.Name()).SetServerFault(mesh.ServerFault{Prob: 1, Status: httpsim.StatusServiceUnavailable, Delay: delay})
		}
	}
	for _, tc := range []struct {
		name string
		d    *DAG
		req  func() *httpsim.Request
		// counter, when set, must count up in every round: the
		// policy path the case is about ran.
		counter string
	}{
		{"a 16-hop chain", BuildChain(ChainConfig{Depth: 16, Mesh: mesh.Config{SidecarDelayMean: -1}}), NewChainRequest, ""},
		{"the social network", social, social.NewDAGRequest, ""},
		{"hedges that fire after their calls finish", short(func(d *DAG, cp *mesh.ControlPlane) {
			for i := 0; i < 4; i++ {
				cp.SetHedgePolicy(fmt.Sprintf("svc-%d", i), mesh.HedgePolicy{Delay: 50 * time.Millisecond})
			}
		}), NewChainRequest, ""},
		{"retries that back off, then the fallback", short(func(d *DAG, cp *mesh.ControlPlane) {
			lastFails(d, 0)
			cp.SetRetryPolicy(last, mesh.RetryPolicy{MaxRetries: 2, RetryOn5xx: true, BackoffBase: time.Millisecond})
			cp.SetFallbackPolicy(last, mesh.FallbackPolicy{Enabled: true})
		}), NewChainRequest, mesh.MetricRetriesTotal},
		{"a fallback deadline before a stalled upstream answers", short(func(d *DAG, cp *mesh.ControlPlane) {
			lastFails(d, time.Second)
			cp.SetFallbackPolicy(last, mesh.FallbackPolicy{Enabled: true})
		}), NewChainRequest, mesh.MetricFallbackServedTotal},
		{"an injected delay before each call", short(func(d *DAG, cp *mesh.ControlPlane) {
			for i := 0; i < 4; i++ {
				cp.SetFaultPolicy(fmt.Sprintf("svc-%d", i), mesh.FaultPolicy{DelayProb: 1, Delay: time.Millisecond})
			}
		}), NewChainRequest, ""},
	} {
		const rounds, concurrent = 10, 8
		var attempts, calls, inbounds int
		var count uint64
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
			if tc.counter != "" {
				n := tc.d.Mesh.Metrics().CounterTotal(tc.counter)
				if n <= count {
					t.Fatalf("%s, round %d: %s stayed at %d", tc.name, round, tc.counter, n)
				}
				count = n
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
			free, made := tc.d.Mesh.FreeAttempts()
			checkList(t, tc.name, round, "attempt", free, made, &attempts)
			free, made = tc.d.Mesh.FreeCalls()
			checkList(t, tc.name, round, "call", free, made, &calls)
			free, made = tc.d.Mesh.FreeInbounds()
			checkList(t, tc.name, round, "inbound", free, made, &inbounds)
			if round == 1 {
				made := 0
				for _, js := range joins {
					made += len(js)
				}
				if attempts == 0 || calls == 0 || inbounds == 0 || made == 0 {
					t.Fatalf("%s: round 1 made %d attempt, %d call, %d inbound and %d join records", tc.name, attempts, calls, inbounds, made)
				}
			}
		}
	}
}

// checkList fails the test unless every record of a mesh free list
// made so far is free, and, after round 1, no record was made since:
// first holds the count round 1 made.
func checkList(t *testing.T, name string, round int, what string, free, made int, first *int) {
	t.Helper()
	switch {
	case free != made:
		t.Fatalf("%s, round %d: %d %s records wait on the free list of %d made", name, round, free, what, made)
	case round == 1:
		*first = made
	case made != *first:
		t.Fatalf("%s, round %d: %d %s records made, %d after round 1", name, round, made, what, *first)
	}
}

// TestELibraryRequestAllocs is the allocation budget of the paper's own
// app: one product page (gateway, frontend, details, reviews, ratings)
// and one analytics scan (gateway, frontend, reviews, ratings, 2 MB
// back over the bottleneck), classified at the ingress. With handlers
// of its own, closures per request, the e-library cost 58 and 62;
// served by the DAG handler's pooled join records, 48 and 57; with
// span-id text in blocks, pooled server and call records and one
// respond closure per inbound request, 27 and 41 as testing.AllocsPerRun
// read them, which counted the sync.Pool refills after the collections
// an analytics scan's 2 MB sets off. Read as an exact mean with the
// collector off, and with the gateway's completion on a free list, they
// cost 25.1 and 20.53, and 25.06 and 20.5 with 32 B span rows and
// span-id blocks of 1,024.
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
		{NewProductRequest, 26},
		{NewAnalyticsRequest, 21},
	} {
		n := allocsPerRequest(func() {
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
