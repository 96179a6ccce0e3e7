package mesh

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/simnet"
)

// TestProxyQueueMatchesTimers: sidecar traversals queued on the mesh's
// one proxy queue complete in the order, and at the times, they did
// when each traversal was its own scheduler timer — the reference kept
// here. Random scripts issue bursts of inbound-request and response
// traversals on a coarse time grid, each completion may issue more at
// its own instant, and unrelated events land on the same instants;
// both runs draw the same proxy delays from equal-seed meshes. With
// SidecarDelayMean -1 every delay is zero and every traversal ties, so
// only the queue's sequence numbers keep the order.
func TestProxyQueueMatchesTimers(t *testing.T) {
	for _, delay := range []time.Duration{0, -1} {
		for seed := int64(1); seed <= 20; seed++ {
			want := driveTraversals(delay, seed, true)
			got := driveTraversals(delay, seed, false)
			if len(want) < 100 {
				t.Fatalf("SidecarDelayMean %v seed %d: the script completed only %d events", delay, seed, len(want))
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					g := "nothing"
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("SidecarDelayMean %v seed %d: completion %d is %s, the per-traversal timers give %s", delay, seed, i, g, want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("SidecarDelayMean %v seed %d: %d completions, the per-traversal timers give %d", delay, seed, len(got), len(want))
			}
		}
	}
}

// driveTraversals runs one random script on a fresh mesh and returns
// what completed, in order, with the simulated time. reference queues
// each traversal as a direct sched.After closure; otherwise an inbound
// traversal enters through handleInbound and reaches the sidecar's app,
// and a response traversal goes out through traverse, as the app's
// respond closure sends it.
func driveTraversals(delay time.Duration, seed int64, reference bool) []string {
	cl := cluster.New(simnet.NewNetwork(simnet.NewScheduler()))
	pod := cl.AddPod(cluster.PodSpec{Name: "svc-1", Labels: map[string]string{"app": "svc"}})
	m := New(cl, Config{SidecarDelayMean: delay, Seed: seed})
	sc := m.InjectSidecar(pod)
	rng := rand.New(rand.NewSource(seed))

	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, m.sched.Now())) }
	done := map[string]func(){}
	sc.RegisterApp(func(req *httpsim.Request, _ func(*httpsim.Response)) { done[req.Path]() })

	n := 0
	var issue func(depth int)
	issue = func(depth int) {
		id := fmt.Sprintf("/%d", n)
		n++
		viaApp := rng.Intn(2) == 0
		finish := func() {
			note(id)
			// A completion may queue further traversals, and unrelated
			// events, at its own instant.
			for k := rng.Intn(3); depth < 4 && k > 0; k-- {
				issue(depth + 1)
			}
			if rng.Intn(3) == 0 {
				m.sched.After(0, func() { note("u") })
			}
		}
		switch {
		case reference:
			d := m.proxyDelay()
			m.sched.After(d, finish)
		case viaApp:
			done[id] = finish
			sc.handleInbound(httpsim.Ctx{}, httpsim.NewRequest("GET", id), nil)
		default:
			in := inbound{sc: sc, req: httpsim.NewRequest("GET", id), respond: func(*httpsim.Response) { finish() }}
			m.traverse(proxyWork{kind: proxyResponse, in: in, resp: httpsim.NewResponse(httpsim.StatusOK)})
		}
	}
	for i := 0; i < 40; i++ {
		at := time.Duration(rng.Intn(20)) * 100 * time.Microsecond
		burst, unrelated := 1+rng.Intn(4), rng.Intn(3)
		m.sched.At(at, func() {
			for k := 0; k < burst; k++ {
				issue(0)
				if k < unrelated {
					m.sched.After(0, func() { note("u") })
				}
			}
		})
	}
	m.sched.Run()
	return log
}
