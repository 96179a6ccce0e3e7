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
