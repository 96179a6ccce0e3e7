package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// scanEndpoints is the reference Endpoints(): every pod in creation
// order, readiness and selector checked on the spot.
func scanEndpoints(c *Cluster, selector map[string]string) []*Pod {
	var out []*Pod
	for _, p := range c.Pods() {
		if p.Ready() && matches(p.Labels(), selector) {
			out = append(out, p)
		}
	}
	return out
}

func samePods(a, b []*Pod) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestEndpointIndexMatchesScan drives random AddPod / AddService /
// SetReady sequences and checks, after every step, that the indexed
// Endpoints() and Subset() of every service equal the brute-force scan,
// that Pod.Services() is the sorted list of services selecting the pod,
// and that no slice handed out earlier has changed.
func TestEndpointIndexMatchesScan(t *testing.T) {
	apps := []string{"a", "b", "c"}
	tiers := []string{"x", "y"}
	selectors := []map[string]string{
		{"app": "a"}, {"app": "b"}, {"app": "c"},
		{"app": "a", "tier": "x"}, {"app": "b", "tier": "y"}, // two keys
		{"tier": "x"},         // cuts across apps
		{},                    // empty: every pod
		nil,                   // nil: every pod
		{"app": "nobody"},     // matches nothing
		{ZoneLabel: "zone-1"}, // the label AddPod writes itself
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, c := newCluster(t)
		type handout struct {
			got  []*Pod
			copy []*Pod
		}
		var handed []handout
		selOf := map[string]map[string]string{}
		nextSel := rng.Perm(len(selectors))
		for step := 0; step < 120; step++ {
			switch k := rng.Intn(10); {
			case k < 4 || len(c.Pods()) == 0:
				spec := PodSpec{
					Name:   fmt.Sprintf("p%d", len(c.Pods())),
					Labels: map[string]string{"app": apps[rng.Intn(len(apps))], "tier": tiers[rng.Intn(len(tiers))]},
				}
				if rng.Intn(3) == 0 {
					spec.Zone = fmt.Sprintf("zone-%d", rng.Intn(2))
				}
				if rng.Intn(8) == 0 {
					spec.Labels = nil
				}
				c.AddPod(spec)
			case k < 5 && len(nextSel) > 0:
				name := fmt.Sprintf("s%d", nextSel[0])
				selOf[name] = selectors[nextSel[0]]
				c.AddService(name, 80, selOf[name])
				nextSel = nextSel[1:]
			default:
				pods := c.Pods()
				p := pods[rng.Intn(len(pods))]
				p.SetReady(rng.Intn(2) == 0)
			}

			svcs := c.Services()
			if !sort.SliceIsSorted(svcs, func(i, j int) bool { return svcs[i].Name() < svcs[j].Name() }) || len(svcs) != len(selOf) {
				t.Fatalf("seed %d step %d: Services() = %d entries, sorted=false or count != %d", seed, step, len(svcs), len(selOf))
			}
			for _, svc := range svcs {
				want := scanEndpoints(c, selOf[svc.Name()])
				got := svc.Endpoints()
				if !samePods(got, want) {
					t.Fatalf("seed %d step %d: %s Endpoints() = %v, scan = %v", seed, step, svc.Name(), names(got), names(want))
				}
				handed = append(handed, handout{got, append([]*Pod(nil), got...)})
				var wantX []*Pod
				for _, p := range want {
					if p.Label("tier") == "x" {
						wantX = append(wantX, p)
					}
				}
				if gotX := svc.Subset("tier", "x"); !samePods(gotX, wantX) {
					t.Fatalf("seed %d step %d: %s Subset(tier=x) = %v, scan = %v", seed, step, svc.Name(), names(gotX), names(wantX))
				}
			}
			for _, p := range c.Pods() {
				var want []string
				for _, svc := range svcs {
					if matches(p.Labels(), selOf[svc.Name()]) {
						want = append(want, svc.Name())
					}
				}
				var got []string
				for _, svc := range p.Services() {
					got = append(got, svc.Name())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: %s Services() = %v, want %v", seed, step, p.Name(), got, want)
				}
			}
		}
		for i, h := range handed {
			if !samePods(h.got, h.copy) {
				t.Fatalf("seed %d: handed-out slice %d changed afterwards: %v, was %v", seed, i, names(h.got), names(h.copy))
			}
		}
	}
}

func names(pods []*Pod) []string {
	out := make([]string, len(pods))
	for i, p := range pods {
		out[i] = p.Name()
	}
	return out
}

// TestAddPodCopiesLabels: one spec map reused for pods in two zones
// must not relabel the first pod, nor gain the labels AddPod adds.
func TestAddPodCopiesLabels(t *testing.T) {
	_, c := newCluster(t)
	shared := map[string]string{"app": "w"}
	p1 := c.AddPod(PodSpec{Name: "w-1", Labels: shared, Zone: "zone-a", Region: "r1"})
	p2 := c.AddPod(PodSpec{Name: "w-2", Labels: shared, Zone: "zone-b", Region: "r2"})
	if p1.Label(ZoneLabel) != "zone-a" || p2.Label(ZoneLabel) != "zone-b" {
		t.Fatalf("zone labels: %q, %q", p1.Label(ZoneLabel), p2.Label(ZoneLabel))
	}
	if p1.Label(RegionLabel) != "r1" || p2.Label(RegionLabel) != "r2" {
		t.Fatalf("region labels: %q, %q", p1.Label(RegionLabel), p2.Label(RegionLabel))
	}
	if len(shared) != 1 {
		t.Fatalf("AddPod wrote into the caller's map: %v", shared)
	}
	za := c.AddService("w-a", 80, map[string]string{"app": "w", ZoneLabel: "zone-a"})
	if eps := za.Endpoints(); len(eps) != 1 || eps[0] != p1 {
		t.Fatalf("zone-a endpoints = %v", names(eps))
	}
	shared["app"] = "other" // a later edit of the spec map cannot move the pod either
	if p1.Label("app") != "w" {
		t.Fatal("pod label follows the caller's map")
	}
}

// TestTopologyHookCarriesPod: the hook names the pod added or flipped,
// fires only on actual flips, and sees the new endpoint list.
func TestTopologyHookCarriesPod(t *testing.T) {
	_, c := newCluster(t)
	svc := c.AddService("w", 80, map[string]string{"app": "w"})
	var seen []string
	c.SetTopologyHook(func(p *Pod) {
		seen = append(seen, fmt.Sprintf("%s:%d", p.Name(), len(svc.Endpoints())))
	})
	p1 := c.AddPod(PodSpec{Name: "w-1", Labels: map[string]string{"app": "w"}})
	c.AddPod(PodSpec{Name: "other"})
	p1.SetReady(true) // no flip, no call
	p1.SetReady(false)
	p1.SetReady(true)
	want := []string{"w-1:1", "other:1", "w-1:0", "w-1:1"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("hook calls = %v, want %v", seen, want)
	}
}

// TestEndpointsHitAllocatesNothing: a cached Endpoints() is free, and a
// rebuild after a flip is one slice whatever the service size.
func TestEndpointsHitAllocatesNothing(t *testing.T) {
	_, c := newCluster(t)
	var first *Pod
	for i := 0; i < 500; i++ {
		p := c.AddPod(PodSpec{Name: fmt.Sprintf("w-%d", i), Labels: map[string]string{"app": "w"}})
		if first == nil {
			first = p
		}
	}
	svc := c.AddService("w", 80, map[string]string{"app": "w"})
	svc.Endpoints()
	if n := testing.AllocsPerRun(100, func() { svc.Endpoints() }); n != 0 {
		t.Fatalf("Endpoints() on a hit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		first.SetReady(!first.Ready())
		svc.Endpoints()
	}); n != 1 {
		t.Fatalf("flip + Endpoints() allocates %v times, want 1 (the fresh slice)", n)
	}
}
