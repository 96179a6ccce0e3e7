package ctrlplane

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// BenchmarkResyncWave drives 1,000 subscribers over 100 resources; one
// iteration is a crash/recover resync wave followed by 20
// single-resource deltas. Besides -benchmem's allocations it reports
// retained-B/sub: the live heap the server and its subscribers' snapshots
// hold after a GC, divided by the subscribers — the per-subscriber cost
// of the control plane's state.
func BenchmarkResyncWave(b *testing.B) {
	const subs, resources, deltas = 1000, 100, 20
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	srv := NewServer(Config{Sched: sched, Transport: tr, Debounce: 50 * time.Millisecond})
	names := make([]string, resources)
	for i := range names {
		names[i] = fmt.Sprintf("svc-%03d", i)
		srv.SetResource(names[i], i, 2000)
	}
	for i := 0; i < subs; i++ {
		subscribe(tr, srv, fmt.Sprintf("sidecar-%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Crash()
		srv.Recover()
		sched.RunFor(time.Second)
		for d := 0; d < deltas; d++ {
			srv.SetResource(names[(i*deltas+d)%resources], d, 2000)
			sched.RunFor(100 * time.Millisecond)
		}
		tr.pushes = tr.pushes[:0]
	}
	b.StopTimer()
	if srv.UnsyncedCount() != 0 || srv.MaxLag() != 0 {
		b.Fatalf("fleet not converged: %d unsynced, lag %d", srv.UnsyncedCount(), srv.MaxLag())
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(int64(ms.HeapAlloc)-int64(before))/subs, "retained-B/sub")
	runtime.KeepAlive(srv)
	runtime.KeepAlive(tr)
}
