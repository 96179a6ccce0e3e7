package mesh

import (
	"fmt"
	"runtime"
	"testing"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
)

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkSidecarFleet builds ctrl_storm's data plane: 75 services of
// 20 replicas with a sidecar each, then 8 callers that call every
// service three times. Besides -benchmem's allocations it reports
// retained-B/sidecar, the live heap a replica's sidecar adds after a GC,
// and retained-B/caller, what a caller adds once its calls are answered:
// its routing state and its connections, both ends.
func BenchmarkSidecarFleet(b *testing.B) {
	const services, replicas, callers = 75, 20, 8
	var sidecarB, callerB float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched := simnet.NewScheduler()
		cl := cluster.New(simnet.NewNetwork(sched))
		m := New(cl, Config{Seed: 1})
		var pods []*cluster.Pod
		for s := 0; s < services; s++ {
			svc := fmt.Sprintf("w%03d", s)
			for r := 0; r < replicas; r++ {
				pods = append(pods, cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("%s-%d", svc, r), Labels: map[string]string{"app": svc}}))
			}
			cl.AddService(svc, 9080, map[string]string{"app": svc})
		}
		fronts := make([]*cluster.Pod, callers)
		for c := range fronts {
			fronts[c] = cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("frontend-%d", c), Labels: map[string]string{"app": "frontend"}})
		}
		base := liveHeap()
		b.StartTimer()
		for _, p := range pods {
			m.InjectSidecar(p).RegisterApp(func(_ *httpsim.Request, respond func(*httpsim.Response)) {
				respond(httpsim.NewResponse(httpsim.StatusOK))
			})
		}
		b.StopTimer()
		idle := liveHeap()
		b.StartTimer()
		for _, p := range fronts {
			sc := m.InjectSidecar(p)
			for k := 0; k < 3*services; k++ {
				req := httpsim.NewRequest("GET", "/")
				req.Headers.Set(HeaderHost, fmt.Sprintf("w%03d", k%services))
				sc.Call(req, func(*httpsim.Response, error) {})
			}
		}
		sched.Run()
		b.StopTimer()
		routed := liveHeap()
		sidecarB += float64(idle-base) / float64(len(pods))
		callerB += float64(routed-idle) / callers
		runtime.KeepAlive(m)
		b.StartTimer()
	}
	b.ReportMetric(sidecarB/float64(b.N), "retained-B/sidecar")
	b.ReportMetric(callerB/float64(b.N), "retained-B/caller")
}
