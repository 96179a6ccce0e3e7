package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkPodFootprint builds the bulk_fanin fleet under hybrid
// fidelity: 40 zones of 100 pods, in each a collector listening and 99
// senders each dialling it, run until every handshake completes. Besides
// -benchmem's allocations it reports retained-B/pod, the live heap the
// pods hold after a GC divided by the pods, and retained-B/conn, what the
// established connections add to it divided by the connections: the
// fixed cost of a pod and of a pooled connection before either carries a
// byte.
func BenchmarkPodFootprint(b *testing.B) {
	const zones, podsPerZone = 40, 100
	var podB, connB float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := liveHeap()
		b.StartTimer()
		sched := simnet.NewScheduler()
		net := simnet.NewNetwork(sched)
		net.SetFidelity(simnet.FidelityHybrid)
		c := New(net)
		colls := make([]*Pod, zones)
		var senders []*Pod
		for z := range colls {
			zone := fmt.Sprintf("z%03d", z)
			colls[z] = c.AddPod(PodSpec{Name: "coll-" + zone, Zone: zone})
			if _, err := colls[z].Host().Listen(9000, func(*transport.Conn) {}); err != nil {
				b.Fatal(err)
			}
			for p := 1; p < podsPerZone; p++ {
				senders = append(senders, c.AddPod(PodSpec{Name: fmt.Sprintf("send-%s-%d", zone, p), Zone: zone}))
			}
		}
		b.StopTimer()
		pods := liveHeap()
		b.StartTimer()
		conns := make([]*transport.Conn, len(senders))
		for k, p := range senders {
			conns[k] = p.Host().Dial(colls[k/(podsPerZone-1)].Addr(), 9000, transport.Options{})
		}
		sched.Run()
		b.StopTimer()
		all := liveHeap()
		for _, conn := range conns {
			if !conn.Established() {
				b.Fatalf("%v never established", conn.Flow())
			}
		}
		podB += float64(pods-base) / float64(zones*podsPerZone)
		connB += float64(all-pods) / float64(len(conns))
		runtime.KeepAlive(c)
		b.StartTimer()
	}
	b.ReportMetric(podB/float64(b.N), "retained-B/pod")
	b.ReportMetric(connB/float64(b.N), "retained-B/conn")
}
