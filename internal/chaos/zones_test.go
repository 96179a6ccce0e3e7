package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// zonedTarget builds a two-zone cluster: alpha/beta in zone-a,
// gamma in zone-b.
func zonedTarget(t *testing.T) *Target {
	t.Helper()
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	cl.AddZone("zone-a", simnet.LinkConfig{})
	cl.AddZone("zone-b", simnet.LinkConfig{})
	a := cl.AddPod(cluster.PodSpec{Name: "alpha", Labels: map[string]string{"app": "alpha"}, Zone: "zone-a"})
	b := cl.AddPod(cluster.PodSpec{Name: "beta", Labels: map[string]string{"app": "beta"}, Zone: "zone-a"})
	g := cl.AddPod(cluster.PodSpec{Name: "gamma", Labels: map[string]string{"app": "gamma"}, Zone: "zone-b"})
	m := mesh.New(cl, mesh.Config{Seed: 1})
	m.InjectSidecar(a)
	m.InjectSidecar(b)
	m.InjectSidecar(g)
	return &Target{Sched: sched, Cluster: cl, Mesh: m}
}

func TestZoneOutageCrashesAllButSpared(t *testing.T) {
	tg := zonedTarget(t)
	f := ZoneOutage{Zone: "zone-a", Except: []string{"beta"}}
	f.Inject(tg)
	if !tg.Cluster.Pod("alpha").Partitioned() {
		t.Fatal("alpha survived its zone's outage")
	}
	if tg.Cluster.Pod("beta").Partitioned() {
		t.Fatal("spared pod was crashed")
	}
	if tg.Cluster.Pod("gamma").Partitioned() {
		t.Fatal("outage leaked into another zone")
	}
	f.Revert(tg)
	if tg.Cluster.Pod("alpha").Partitioned() {
		t.Fatal("alpha not restored")
	}
}

func TestZonePartitionTogglesUplink(t *testing.T) {
	tg := zonedTarget(t)
	f := ZonePartition{Zone: "zone-b"}
	f.Inject(tg)
	if !tg.Cluster.ZoneUplink("zone-b").Down() {
		t.Fatal("uplink not severed")
	}
	// Pods inside the partitioned zone stay up.
	if tg.Cluster.Pod("gamma").Partitioned() {
		t.Fatal("partition crashed a pod")
	}
	f.Revert(tg)
	if tg.Cluster.ZoneUplink("zone-b").Down() {
		t.Fatal("uplink not restored")
	}
}

func TestSlowZoneScalesExecOfWholeZone(t *testing.T) {
	tg := zonedTarget(t)
	f := SlowZone{Zone: "zone-a", Factor: 10}
	f.Inject(tg)
	if got := tg.Cluster.Pod("alpha").ExecFactor(); got != 10 {
		t.Fatalf("alpha exec factor = %v, want 10", got)
	}
	if got := tg.Cluster.Pod("gamma").ExecFactor(); got != 1 {
		t.Fatalf("gamma exec factor = %v, want 1 (other zone)", got)
	}
	f.Revert(tg)
	if got := tg.Cluster.Pod("alpha").ExecFactor(); got != 1 {
		t.Fatalf("alpha exec factor after revert = %v", got)
	}
}

func TestZoneFaultValidation(t *testing.T) {
	cases := []struct {
		fault Fault
		want  string
	}{
		{ZoneOutage{Zone: "zone-x"}, "unknown or empty zone"},
		{ZonePartition{Zone: "zone-x"}, "unknown or empty zone"},
		{SlowZone{Zone: "zone-a", Factor: 0.5}, "Factor must be >= 1"},
	}
	for _, c := range cases {
		tg := zonedTarget(t)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Schedule(%s) accepted invalid fault", c.fault.Name())
					return
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Errorf("Schedule(%s) panic = %q, want containing %q", c.fault.Name(), msg, c.want)
				}
			}()
			NewEngine(tg).Schedule(Scenario{Name: "v", Events: []Event{
				{At: time.Millisecond, Fault: c.fault},
			}})
		}()
	}
	// A well-formed zone scenario schedules cleanly.
	tg := zonedTarget(t)
	NewEngine(tg).Schedule(Scenario{Name: "ok", Events: []Event{
		{At: time.Millisecond, Duration: time.Millisecond, Fault: ZoneOutage{Zone: "zone-a"}},
		{At: time.Millisecond, Duration: time.Millisecond, Fault: ZonePartition{Zone: "zone-b"}},
		{At: time.Millisecond, Duration: time.Millisecond, Fault: SlowZone{Zone: "zone-b", Factor: 2}},
	}})
	tg.Sched.Run()
}
