package chaos

import (
	"fmt"
	"time"

	"meshlayer/internal/simnet"
)

// This file holds WAN-scale correlated faults: the WAN links between
// regions partitioning or degrading, and the operational event that
// motivates priority failover ladders — a region being drained on
// purpose. Zone faults (zones.go) stress the intra-region spine; these
// stress the federation layer above it.

// WANPartition severs every WAN link touching a region: the region
// keeps serving its local traffic, but cross-region calls blackhole
// and its control plane stops exchanging capacity summaries — the
// split-brain case where each side routes on a frozen view of the
// other.
type WANPartition struct {
	Region string
}

// Name implements Fault.
func (f WANPartition) Name() string { return "wan-partition/" + f.Region }

// Inject implements Fault.
func (f WANPartition) Inject(t *Target) { f.setDown(t, true) }

// Revert implements Fault.
func (f WANPartition) Revert(t *Target) { f.setDown(t, false) }

func (f WANPartition) setDown(t *Target, down bool) {
	for _, peer := range t.Cluster.Regions() {
		if peer == f.Region {
			continue
		}
		if l := t.Cluster.WANLink(f.Region, peer); l != nil {
			l.SetDown(down)
		}
	}
}

func (f WANPartition) validate(t *Target) error {
	if err := needRegion(t, f.Region); err != nil {
		return err
	}
	if len(t.Cluster.Regions()) < 2 {
		return fmt.Errorf("wan-partition/%s: cluster has no WAN links", f.Region)
	}
	return nil
}

// SlowWAN degrades every WAN link touching a region without severing
// it: up to Extra additional one-way delay (uniform, so reordering
// emerges) and optional random loss. The WAN gray failure — congested
// backbone, a flapping long-haul path — where cross-region calls still
// complete, slowly and lossily.
type SlowWAN struct {
	Region string
	Extra  time.Duration
	Loss   float64
	Seed   int64
}

// Name implements Fault.
func (f SlowWAN) Name() string { return "slow-wan/" + f.Region }

// Inject implements Fault.
func (f SlowWAN) Inject(t *Target) {
	i := 0
	for _, peer := range t.Cluster.Regions() {
		if peer == f.Region {
			continue
		}
		l := t.Cluster.WANLink(f.Region, peer)
		if l == nil {
			continue
		}
		// Distinct seeds per direction keep the two flows' loss draws
		// independent and the whole fault deterministic.
		l.A().Impair(simnet.Impairment{LossProb: f.Loss, JitterMax: f.Extra, Seed: f.Seed + int64(2*i)})
		l.B().Impair(simnet.Impairment{LossProb: f.Loss, JitterMax: f.Extra, Seed: f.Seed + int64(2*i+1)})
		i++
	}
}

// Revert implements Fault.
func (f SlowWAN) Revert(t *Target) {
	for _, peer := range t.Cluster.Regions() {
		if peer == f.Region {
			continue
		}
		if l := t.Cluster.WANLink(f.Region, peer); l != nil {
			l.A().Impair(simnet.Impairment{})
			l.B().Impair(simnet.Impairment{})
		}
	}
}

func (f SlowWAN) validate(t *Target) error {
	if err := needRegion(t, f.Region); err != nil {
		return err
	}
	if f.Loss < 0 || f.Loss > 1 {
		return fmt.Errorf("slow-wan/%s: Loss must be in [0, 1]", f.Region)
	}
	if len(t.Cluster.Regions()) < 2 {
		return fmt.Errorf("slow-wan/%s: cluster has no WAN links", f.Region)
	}
	return nil
}

// RegionEvacuate drains a region the way an operator would: pods are
// marked unready one at a time, staggered evenly across Window, so
// discovery and the failover ladder absorb a moving target rather than
// a step function. Except lists pods never drained (gateways, the
// regional control plane — infrastructure that outlives the
// evacuation). Revert cancels any pending drain timers and restores
// readiness for pods already drained.
type RegionEvacuate struct {
	Region string
	Window time.Duration
	Except []string

	timers  []simnet.Timer
	drained []string
}

// Name implements Fault.
func (f *RegionEvacuate) Name() string { return "region-evacuate/" + f.Region }

// Inject implements Fault.
func (f *RegionEvacuate) Inject(t *Target) {
	var victims []string
	for _, pod := range t.Cluster.RegionPods(f.Region) {
		if !containsName(f.Except, pod.Name()) && pod.Ready() {
			victims = append(victims, pod.Name())
		}
	}
	if len(victims) == 0 {
		return
	}
	step := f.Window / time.Duration(len(victims))
	for k, name := range victims {
		name := name
		fire := func() {
			t.Cluster.Pod(name).SetReady(false)
			f.drained = append(f.drained, name)
		}
		if k == 0 {
			fire()
			continue
		}
		f.timers = append(f.timers, t.Sched.After(time.Duration(k)*step, fire))
	}
}

// Revert implements Fault.
func (f *RegionEvacuate) Revert(t *Target) {
	for _, timer := range f.timers {
		timer.Cancel()
	}
	f.timers = nil
	for _, name := range f.drained {
		t.Cluster.Pod(name).SetReady(true)
	}
	f.drained = nil
}

func (f *RegionEvacuate) validate(t *Target) error {
	if err := needRegion(t, f.Region); err != nil {
		return err
	}
	if f.Window <= 0 {
		return fmt.Errorf("region-evacuate/%s: Window must be positive", f.Region)
	}
	return nil
}

func needRegion(t *Target, region string) error {
	if len(t.Cluster.RegionPods(region)) == 0 {
		return fmt.Errorf("unknown or empty region %q", region)
	}
	return nil
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
