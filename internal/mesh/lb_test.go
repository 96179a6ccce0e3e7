package mesh

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"meshlayer/internal/cluster"
)

// refPickFrom is pickFrom as it was when every health-filtering pass
// built a fresh slice, kept as the reference for the one that copies
// only once it drops an endpoint.
func refPickFrom(sc *Sidecar, service string, eps []*cluster.Pod, panicOpen bool) *cluster.Pod {
	now := sc.mesh.sched.Now()
	eligible := eps
	if !panicOpen {
		eligible = eps[:0:0]
		for _, ep := range eps {
			if sc.endpoints[ep.Addr()].available(now) {
				eligible = append(eligible, ep)
			}
		}
		if len(eligible) > 1 {
			kept := eligible[:0:0]
			for _, ep := range eligible {
				if frac, ok := sc.endpoints[ep.Addr()].warming(now); ok && sc.mesh.rng.Float64() >= frac {
					continue
				}
				kept = append(kept, ep)
			}
			if len(kept) > 0 {
				eligible = kept
			}
		}
		// Outlier panic routing at its 0.5 threshold (outlierPanicThreshold).
		if sc.outlierFor(service).Enabled && float64(len(eligible)) < 0.5*float64(len(eps)) {
			eligible = eps
		}
		if len(eligible) == 0 {
			eligible = eps
		}
	}
	switch sc.lbPolicyFor(service) {
	case LBRandom:
		return eligible[sc.mesh.rng.Intn(len(eligible))]
	case LBLeastRequest:
		return sc.pickLeast(eligible)
	case LBEWMA:
		return sc.pickEWMA(eligible)
	default:
		return sc.pickRR(service, eligible)
	}
}

// randomEndpointState draws one endpoint's state at now: fresh (nil),
// in rotation with some load and latency, probe-unhealthy, ejected or
// past its ejection, breaker open or due to half-open, half-open with
// or without its trial out, or warming up or done warming.
func randomEndpointState(rng *rand.Rand, now time.Duration) *endpointState {
	ms := func() time.Duration { return time.Duration(1+rng.Intn(20)) * time.Millisecond }
	st := &endpointState{inflight: rng.Intn(4)}
	if rng.Intn(2) == 0 {
		st.ewma = float64(ms())
	}
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
	case 2:
		st.unhealthy = true
	case 3:
		st.ejectedUntil = now + ms() - 10*time.Millisecond
	case 4:
		st.phase, st.openUntil = breakerOpen, now+ms()-10*time.Millisecond
	case 5:
		st.phase, st.trial = breakerHalfOpen, rng.Intn(2) == 0
	default:
		st.warmSince, st.warmUntil = now-ms(), now+ms()-5*time.Millisecond
	}
	return st
}

// TestPickFromMatchesReference: over random endpoint states, LB
// policies, outlier detection on and off, and priority levels, pickFrom
// picks the endpoint the reference picks, leaves every endpoint's state
// as the reference leaves it (a due breaker turns half-open in both),
// draws the same randomness, and never writes into the level it is
// given.
func TestPickFromMatchesReference(t *testing.T) {
	lbs := []LBPolicy{LBRoundRobin, LBRandom, LBLeastRequest, LBEWMA}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		gm, got, gpods := replicaBed(seed, n)
		rm, ref, rpods := replicaBed(seed, n)
		for step := 0; step < 100; step++ {
			if step%10 == 0 {
				lb := lbs[rng.Intn(len(lbs))]
				op := OutlierPolicy{Enabled: rng.Intn(2) == 0}
				for _, m := range []*Mesh{gm, rm} {
					m.ControlPlane().SetLBPolicy("w", lb)
					m.ControlPlane().SetOutlierPolicy("w", op)
				}
			}
			d := time.Duration(1+rng.Intn(10)) * time.Millisecond
			gm.sched.RunFor(d)
			rm.sched.RunFor(d)
			now := gm.sched.Now()
			for i := range gpods {
				st := randomEndpointState(rng, now)
				for _, side := range []struct {
					sc  *Sidecar
					pod *cluster.Pod
				}{{got, gpods[i]}, {ref, rpods[i]}} {
					if st == nil {
						delete(side.sc.endpoints, side.pod.Addr())
					} else {
						*side.sc.epState(side.pod.Addr()) = *st
					}
				}
			}
			// A priority level is any run of the replicas.
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			geps, reps := slices.Clone(gpods[lo:hi]), slices.Clone(rpods[lo:hi])
			panicOpen := rng.Intn(8) == 0

			a := got.pickFrom("w", geps, panicOpen)
			b := refPickFrom(ref, "w", reps, panicOpen)
			if a.Name() != b.Name() {
				t.Fatalf("seed %d step %d: picked %s, reference %s", seed, step, a.Name(), b.Name())
			}
			if !slices.Equal(geps, gpods[lo:hi]) {
				t.Fatalf("seed %d step %d: pickFrom wrote into the level it was given", seed, step)
			}
			for i, p := range gpods {
				g, r := got.endpoints[p.Addr()], ref.endpoints[rpods[i].Addr()]
				if (g == nil) != (r == nil) || g != nil && *g != *r {
					t.Fatalf("seed %d step %d: %s state %+v, reference %+v", seed, step, p.Name(), g, r)
				}
			}
			if x, y := gm.rng.Int63(), rm.rng.Int63(); x != y {
				t.Fatalf("seed %d step %d: pickFrom drew different randomness from the reference", seed, step)
			}
		}
	}
}

// TestPickFromHealthyAllocatesNothing: over a level where every
// endpoint is in rotation and none is warming, picking copies nothing,
// under every LB policy.
func TestPickFromHealthyAllocatesNothing(t *testing.T) {
	m, sc, pods := replicaBed(1, 10)
	for i, p := range pods {
		sc.epState(p.Addr()).inflight = i % 3
	}
	for _, lb := range []LBPolicy{LBRoundRobin, LBRandom, LBLeastRequest, LBEWMA} {
		m.ControlPlane().SetLBPolicy("w", lb)
		if n := testing.AllocsPerRun(100, func() { sc.pickFrom("w", pods, false) }); n != 0 {
			t.Errorf("%s: picking over healthy endpoints allocates %v times", lb, n)
		}
	}
}
