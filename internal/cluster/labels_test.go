package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// addPodAllocBudget is what AddPod allocated per pod while every pod
// built a label map of its own: sharing label sets must not raise it.
const (
	addPodAllocBudget          = 15 // labelled pod
	addPodAllocBudgetUnlabeled = 14 // no spec labels, zone or region
)

func mapID(m map[string]string) uintptr { return reflect.ValueOf(m).Pointer() }

// freshLabels is the reference label map: a copy of the spec labels
// with the zone and region labels written over them (every spec here
// that names both names the zone's own region).
func freshLabels(spec PodSpec) map[string]string {
	m := map[string]string{}
	for k, v := range spec.Labels {
		m[k] = v
	}
	if spec.Zone != "" {
		m[ZoneLabel] = spec.Zone
	}
	if spec.Region != "" {
		m[RegionLabel] = spec.Region
	}
	return m
}

// TestPodsShareEqualLabelSets: pods with equal label sets hold one map
// whatever the spec map's identity or insertion order, or whether the
// zone came from the spec labels or the Zone field; the zone and region
// labels tell sets apart; every pod's labels and every service's members
// equal what fresh per-pod maps give; and AddPod allocates no more than
// it did with per-pod maps.
func TestPodsShareEqualLabelSets(t *testing.T) {
	_, c := newCluster(t)
	fresh := map[*Pod]map[string]string{}
	add := func(spec PodSpec) *Pod {
		p := c.AddPod(spec)
		fresh[p] = freshLabels(spec)
		if !reflect.DeepEqual(p.Labels(), fresh[p]) {
			t.Fatalf("%s labels %v, fresh map %v", p.Name(), p.Labels(), fresh[p])
		}
		if spec.Labels != nil && mapID(p.Labels()) == mapID(spec.Labels) {
			t.Fatalf("%s holds the caller's spec map", p.Name())
		}
		return p
	}
	ab := map[string]string{}
	ab["app"], ab["tier"] = "w", "x"
	ba := map[string]string{}
	ba["tier"], ba["app"] = "x", "w"
	p1 := add(PodSpec{Name: "p1", Labels: ab, Zone: "zone-a"})
	p2 := add(PodSpec{Name: "p2", Labels: ba, Zone: "zone-a"})
	p3 := add(PodSpec{Name: "p3", Labels: map[string]string{"app": "w", "tier": "x", ZoneLabel: "zone-a"}})
	p4 := add(PodSpec{Name: "p4", Labels: map[string]string{"app": "w", "tier": "x", ZoneLabel: "stale"}, Zone: "zone-a"})
	for _, p := range []*Pod{p2, p3, p4} {
		if mapID(p.Labels()) != mapID(p1.Labels()) {
			t.Fatalf("%s labels %v not shared with p1's equal %v", p.Name(), p.Labels(), p1.Labels())
		}
	}
	for _, spec := range []PodSpec{
		{Name: "other-zone", Labels: ab, Zone: "zone-b"},
		{Name: "no-zone", Labels: ab},
		{Name: "region", Labels: ab, Zone: "zone-c", Region: "r1"},
		{Name: "other-region", Labels: ab, Region: "r2"},
	} {
		if p := add(spec); mapID(p.Labels()) == mapID(p1.Labels()) {
			t.Fatalf("%s labels %v share p1's map %v", p.Name(), p.Labels(), p1.Labels())
		}
	}
	if a, b := add(PodSpec{Name: "r2-a", Region: "r2"}), add(PodSpec{Name: "r2-b", Region: "r2"}); mapID(a.Labels()) != mapID(b.Labels()) {
		t.Fatal("two pods of one region hold different maps")
	}

	// A new set whose hash another set already holds gets its own map.
	decoy := map[string]string{"decoy": "1"}
	c.labelSets[labelHash("app", "collide")] = decoy
	if p := add(PodSpec{Name: "collide", Labels: map[string]string{"app": "collide"}}); mapID(p.Labels()) == mapID(decoy) || len(decoy) != 1 {
		t.Fatalf("colliding set: pod labels %v, decoy %v", p.Labels(), decoy)
	}

	// Random pods and services against fresh per-pod maps.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		spec := PodSpec{Name: fmt.Sprintf("rnd-%d", i), Labels: map[string]string{"app": fmt.Sprint("a", rng.Intn(3))}}
		if rng.Intn(2) == 0 {
			spec.Labels["tier"] = fmt.Sprint("t", rng.Intn(2))
		}
		if rng.Intn(2) == 0 {
			spec.Zone = fmt.Sprint("zone-", rng.Intn(3))
		}
		if spec.Zone == "" && rng.Intn(3) == 0 {
			spec.Region = fmt.Sprint("r", 1+rng.Intn(2))
		}
		add(spec)
	}
	byContent := map[string]uintptr{}
	for _, p := range c.Pods() {
		key := fmt.Sprint(p.Labels()) // fmt prints maps in key order
		if id, ok := byContent[key]; ok && id != mapID(p.Labels()) {
			t.Fatalf("%s: two maps hold the set %s", p.Name(), key)
		}
		byContent[key] = mapID(p.Labels())
	}
	for i, sel := range []map[string]string{
		{"app": "a0"}, {"app": "a1", "tier": "t0"}, {ZoneLabel: "zone-1"}, {RegionLabel: "r2"},
		{"app": "a2", ZoneLabel: "zone-2"}, {}, {"app": "w", "tier": "x"},
	} {
		svc := c.AddService(fmt.Sprint("svc-", i), 80, sel)
		var want []*Pod
		for _, p := range c.Pods() {
			if matches(fresh[p], sel) {
				want = append(want, p)
			}
		}
		if got := svc.Endpoints(); !samePods(got, want) {
			t.Fatalf("service %v members %v, fresh maps give %v", sel, names(got), names(want))
		}
	}

	var specs []PodSpec
	for i := 0; i < 1000; i++ {
		specs = append(specs,
			PodSpec{Name: fmt.Sprint("held-", i), Labels: map[string]string{"app": "w"}, Zone: "zone-a"},
			PodSpec{Name: fmt.Sprint("new-", i), Labels: map[string]string{"app": fmt.Sprint("new-", i)}, Zone: "zone-a"},
			PodSpec{Name: fmt.Sprint("bare-", i)})
	}
	for kind, what := range []string{"a held label set", "a new label set", "no labels"} {
		budget := float64(addPodAllocBudget)
		if kind == 2 {
			budget = addPodAllocBudgetUnlabeled
		}
		n := kind
		allocs := testing.AllocsPerRun(200, func() { c.AddPod(specs[n]); n += 3 })
		if allocs > budget {
			t.Errorf("AddPod of a pod with %s allocates %v times, budget %v", what, allocs, budget)
		}
	}
}
