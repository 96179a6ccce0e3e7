package chaos

import (
	"strings"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// testTarget builds a two-pod cluster with a mesh, enough substrate
// for every fault type.
func testTarget(t *testing.T) *Target {
	t.Helper()
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	a := cl.AddPod(cluster.PodSpec{Name: "alpha", Labels: map[string]string{"app": "alpha"}})
	b := cl.AddPod(cluster.PodSpec{Name: "beta", Labels: map[string]string{"app": "beta"}})
	m := mesh.New(cl, mesh.Config{Seed: 1})
	m.InjectSidecar(a)
	m.InjectSidecar(b)
	return &Target{Sched: sched, Cluster: cl, Mesh: m}
}

// fakeFault records its injection/reversion times.
type fakeFault struct {
	injected, reverted []time.Duration
}

func (f *fakeFault) Name() string     { return "fake" }
func (f *fakeFault) Inject(t *Target) { f.injected = append(f.injected, t.Sched.Now()) }
func (f *fakeFault) Revert(t *Target) { f.reverted = append(f.reverted, t.Sched.Now()) }

func TestEngineSchedulesAndReverts(t *testing.T) {
	tg := testTarget(t)
	e := NewEngine(tg)
	f := &fakeFault{}
	perm := &fakeFault{}
	e.Schedule(Scenario{Name: "s", Events: []Event{
		{At: 100 * time.Millisecond, Duration: 50 * time.Millisecond, Fault: f},
		{At: 10 * time.Millisecond, Fault: perm}, // Duration 0: never reverted
	}})
	tg.Sched.Run()
	if len(f.injected) != 1 || f.injected[0] != 100*time.Millisecond {
		t.Fatalf("injected at %v", f.injected)
	}
	if len(f.reverted) != 1 || f.reverted[0] != 150*time.Millisecond {
		t.Fatalf("reverted at %v", f.reverted)
	}
	if len(perm.injected) != 1 || len(perm.reverted) != 0 {
		t.Fatalf("permanent fault: injected %v reverted %v", perm.injected, perm.reverted)
	}
	log := strings.Join(e.Log(), "\n")
	if !strings.Contains(log, "inject fake") || !strings.Contains(log, "revert fake") {
		t.Fatalf("log missing entries:\n%s", log)
	}
}

func TestScheduleValidatesFaults(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault Fault
	}{
		{"unknown pod", PodCrash{Pod: "nope"}},
		{"cp-stale without distribution", CPStale{Delay: time.Second}},
		{"ctrlplane-crash without distribution", ControlPlaneCrash{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(testTarget(t))
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", c.fault.Name())
				}
			}()
			e.Schedule(Scenario{Name: "bad", Events: []Event{{At: 0, Fault: c.fault}}})
		})
	}
}

func TestPodCrashPartitionsAndRestores(t *testing.T) {
	tg := testTarget(t)
	e := NewEngine(tg)
	e.Schedule(Scenario{Events: []Event{
		{At: time.Second, Duration: time.Second, Fault: PodCrash{Pod: "alpha"}},
	}})
	pod := tg.Cluster.Pod("alpha")
	tg.Sched.At(1500*time.Millisecond, func() {
		if !pod.Partitioned() {
			t.Error("pod not partitioned during fault")
		}
	})
	tg.Sched.Run()
	if pod.Partitioned() {
		t.Fatal("pod still partitioned after revert")
	}
}

// A flapping link is a scenario of total-loss bursts: down for 50 ms
// out of every 200 ms, both directions, and up again after the last.
func TestLinkFlapToggles(t *testing.T) {
	tg := testTarget(t)
	e := NewEngine(tg)
	l := tg.Cluster.Pod("alpha").Uplink()
	var flaps []Event
	downs, ups := 0, 0
	// Sample mid-down (t % 200 in [0,50)) and mid-up windows.
	for i := 0; i < 5; i++ {
		base := time.Duration(i) * 200 * time.Millisecond
		flaps = append(flaps, Event{At: base, Duration: 50 * time.Millisecond, Fault: LossBurst{Pod: "alpha", Loss: 1}})
		tg.Sched.At(base+25*time.Millisecond, func() {
			if l.A().Impaired() && l.B().Impaired() {
				downs++
			}
		})
		tg.Sched.At(base+125*time.Millisecond, func() {
			if !l.A().Impaired() && !l.B().Impaired() {
				ups++
			}
		})
	}
	e.Schedule(Scenario{Events: flaps})
	tg.Sched.Run()
	if downs != 5 || ups != 5 {
		t.Fatalf("downs=%d ups=%d, want 5/5", downs, ups)
	}
	if l.A().Impaired() || l.B().Impaired() {
		t.Fatal("link still impaired after revert")
	}
}

func TestLossBurstAppliesBothDirections(t *testing.T) {
	tg := testTarget(t)
	f := LossBurst{Pod: "beta", Loss: 0.1, Jitter: time.Millisecond, Seed: 9}
	f.Inject(tg)
	l := tg.Cluster.Pod("beta").Uplink()
	if !l.A().Impaired() || !l.B().Impaired() {
		t.Fatal("impairment not applied to both directions")
	}
	f.Revert(tg)
	if l.A().Impaired() || l.B().Impaired() {
		t.Fatal("impairment not cleared")
	}
}

func TestSlowPodScalesExec(t *testing.T) {
	tg := testTarget(t)
	f := SlowPod{Pod: "alpha", Factor: 8}
	f.Inject(tg)
	if got := tg.Cluster.Pod("alpha").ExecFactor(); got != 8 {
		t.Fatalf("exec factor = %v", got)
	}
	f.Revert(tg)
	if got := tg.Cluster.Pod("alpha").ExecFactor(); got != 1 {
		t.Fatalf("exec factor after revert = %v", got)
	}
}

// CPStale is the distributors' hold: a policy changed during the fault
// reaches alpha's sidecar only after the revert, within one debounce.
// The policy is an abort on calls to beta, so what alpha's sidecar
// answers is its own view of the policy.
func TestCPStaleDelaysPush(t *testing.T) {
	tg := testTarget(t)
	tg.Cluster.AddService("beta", 9080, map[string]string{"app": "beta"})
	tg.Mesh.Sidecar("beta").RegisterApp(func(_ *httpsim.Request, respond func(*httpsim.Response)) {
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	const debounce = 50 * time.Millisecond
	cp := tg.Mesh.ControlPlane()
	cp.EnableDistribution(mesh.DistributionConfig{Debounce: debounce})
	e := NewEngine(tg)
	e.Schedule(Scenario{Events: []Event{
		{At: 0, Duration: time.Second, Fault: CPStale{Delay: time.Hour}},
	}})
	statuses := map[time.Duration]int{}
	probe := func(at time.Duration) {
		tg.Sched.At(at, func() {
			req := httpsim.NewRequest("GET", "/")
			req.Headers.Set(mesh.HeaderHost, "beta")
			tg.Mesh.Sidecar("alpha").Call(req, func(r *httpsim.Response, err error) {
				if err == nil {
					statuses[at] = r.Status
				}
			})
		})
	}
	tg.Sched.At(100*time.Millisecond, func() {
		cp.SetFaultPolicy("beta", mesh.FaultPolicy{AbortProb: 1})
	})
	// One probe late in the hold, one a debounce (plus the push's
	// transit) after the revert.
	held, lifted := 900*time.Millisecond, time.Second+debounce+5*time.Millisecond
	probe(held)
	probe(lifted)
	tg.Sched.RunFor(2 * time.Second)
	if got := statuses[held]; got != httpsim.StatusOK {
		t.Errorf("call under the hold answered %d, want 200 from the old snapshot", got)
	}
	if got := statuses[lifted]; got != httpsim.StatusServiceUnavailable {
		t.Errorf("call after the revert answered %d, want the policy's 503", got)
	}
}
