package app

import (
	"runtime"
	"testing"

	"meshlayer/internal/httpsim"
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
// forwarding closures 135 more (473), and a change that brings any of
// them back shows here before it shows in the benchmark. The social
// row pins a fan-out hop's join at the cost of a forwarding one.
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
		{"a 4-hop chain", BuildChain(ChainConfig{Depth: 4}), NewChainRequest, 86},
		{"a 16-hop chain", BuildChain(ChainConfig{Depth: 16}), NewChainRequest, 338},
		{"the social network", social, social.NewDAGRequest, 334},
	} {
		n := testing.AllocsPerRun(100, func() {
			tc.d.Gateway.Serve(tc.req(), func(*httpsim.Response, error) {})
			tc.d.Sched.Run()
		})
		if n > tc.budget {
			t.Errorf("one request through %s allocates %v times, budget %v: "+
				"this is rpc_chain's allocs_per_op, and what a request keeps is its live_heap_mb", tc.name, n, tc.budget)
		}
	}
}
