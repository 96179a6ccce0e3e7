package mesh

import (
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/simnet"
)

// breakerPhase is the circuit breaker's position for one endpoint.
type breakerPhase int

const (
	breakerClosed breakerPhase = iota
	breakerOpen
	breakerHalfOpen
)

// endpointState is the sidecar's local view of one upstream endpoint:
// outstanding requests, a latency EWMA, circuit-breaker state, active
// health-check verdict, outlier-ejection state, and the request window
// the outlier sweeper judges. A sidecar makes one at the first write
// for an address (an attempt launched to it, a probe verdict), never on
// a read: a caller that balances over 20 replicas and dials three holds
// three. Until then the nil *endpointState reads as a fresh one — in
// rotation, no load, no latency sample — and the read methods below
// answer that for it.
type endpointState struct {
	inflight int
	ewma     float64 // nanoseconds; 0 = no sample yet

	// Circuit breaker (consecutive failures → open → half-open trial).
	fails     int
	phase     breakerPhase
	openUntil time.Duration
	trial     bool // a half-open trial request is in flight

	// Active health checking.
	unhealthy bool
	hcFails   int
	hcOKs     int

	// LB slow-start after a health recovery: the endpoint's traffic
	// share ramps linearly from 0 at warmSince to full at warmUntil.
	warmSince time.Duration
	warmUntil time.Duration

	// Outlier detection: ejection plus the current sweep window.
	ejectedUntil time.Duration
	winTotal     int
	winFail      int
}

// ewmaAlpha weights new latency samples (~last 10 responses dominate).
const ewmaAlpha = 0.2

// observe folds one completed attempt into the endpoint's state. trial
// marks the half-open probe request, whose outcome alone decides
// whether the breaker closes or re-opens.
func (s *endpointState) observe(lat time.Duration, failed, trial bool, cb CircuitBreakerPolicy, now time.Duration) {
	s.winTotal++
	if failed {
		s.winFail++
	}
	if trial {
		s.trial = false
		if failed {
			s.phase = breakerOpen
			s.openUntil = now + cb.OpenFor
		} else {
			s.phase = breakerClosed
			s.fails = 0
		}
	} else if s.phase == breakerClosed && failed {
		s.fails++
		if cb.ConsecutiveFailures > 0 && s.fails >= cb.ConsecutiveFailures {
			s.phase = breakerOpen
			s.openUntil = now + cb.OpenFor
			s.fails = 0
		}
	} else if s.phase == breakerClosed {
		s.fails = 0
	}
	// Stragglers finishing while the breaker is open/half-open don't
	// move it; only the trial request does.
	if !failed && lat > 0 {
		if s.ewma == 0 {
			s.ewma = float64(lat)
		} else {
			s.ewma = (1-ewmaAlpha)*s.ewma + ewmaAlpha*float64(lat)
		}
	}
}

// breakerAvailable reports whether the breaker admits a request now,
// transitioning open → half-open once OpenFor has elapsed. In
// half-open only a single trial request is admitted at a time.
func (s *endpointState) breakerAvailable(now time.Duration) bool {
	switch s.phase {
	case breakerOpen:
		if now < s.openUntil {
			return false
		}
		s.phase = breakerHalfOpen
		return !s.trial
	case breakerHalfOpen:
		return !s.trial
	default:
		return true
	}
}

// available reports whether the endpoint is in LB rotation: not marked
// unhealthy by active probes, not ejected by outlier detection, and
// admitted by the circuit breaker.
func (s *endpointState) available(now time.Duration) bool {
	return s == nil || (!s.unhealthy && now >= s.ejectedUntil && s.breakerAvailable(now))
}

// load is the endpoint's outstanding requests.
func (s *endpointState) load() int {
	if s == nil {
		return 0
	}
	return s.inflight
}

// warming reports whether the endpoint is in its LB slow-start ramp at
// now, and the share of traffic the ramp admits.
func (s *endpointState) warming(now time.Duration) (frac float64, ok bool) {
	if s == nil || now >= s.warmUntil || s.warmUntil <= s.warmSince {
		return 0, false
	}
	return float64(now-s.warmSince) / float64(s.warmUntil-s.warmSince), true
}

// pickEndpoint applies the service's LB policy over eligible endpoints.
// Endpoints that are circuit-open, probe-unhealthy, or outlier-ejected
// are skipped — unless so few remain that panic routing (or the
// legacy all-open fail-open) re-admits everything.
func (sc *Sidecar) pickEndpoint(service string, eps []*cluster.Pod) *cluster.Pod {
	if len(eps) == 0 {
		return nil
	}
	// Locality first: narrow to one priority level (local zone or the
	// remote spillover level) before health filtering, so panic routing
	// and fail-open judge the level actually being load-balanced.
	eps = sc.localitySelect(service, eps)
	return sc.pickFrom(service, eps, false)
}

// pickFrom load-balances over one already-narrowed priority level.
// panicOpen is the ladder's per-tier fail-open (locality.go): health
// filtering, slow-start, and the outlier panic logic are skipped so
// traffic spreads across every host in the tier.
func (sc *Sidecar) pickFrom(service string, eps []*cluster.Pod, panicOpen bool) *cluster.Pod {
	now := sc.mesh.sched.Now()
	eligible := eps
	if !panicOpen {
		warm := false
		for i, ep := range eps {
			st := sc.endpoints[ep.Addr()]
			ok := st.available(now)
			if _, w := st.warming(now); ok && w {
				warm = true
			}
			eligible = sift(eps, eligible, i, ok)
		}
		// LB slow-start: a warming endpoint is admitted with probability
		// equal to its ramp fraction, so recovered hosts take load
		// gradually. The pass runs only when an eligible endpoint is
		// warming, and is undone when it would empty the eligible set.
		if warm && len(eligible) > 1 {
			kept := eligible
			for i, ep := range eligible {
				frac, w := sc.endpoints[ep.Addr()].warming(now)
				kept = sift(eligible, kept, i, !w || sc.mesh.rng.Float64() < frac)
			}
			if len(kept) > 0 {
				eligible = kept
			}
		}
		if sc.outlierFor(service).Enabled &&
			float64(len(eligible)) < outlierPanicThreshold*float64(len(eps)) {
			eligible = eps // panic routing: too few healthy hosts, use them all
		}
		if len(eligible) == 0 {
			eligible = eps // all breakers open: fail open rather than refuse
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

// sift records eps[i]'s verdict in kept, the endpoints a filtering
// pass over eps has kept so far; the pass starts with kept = eps. While
// every endpoint passes, kept is eps itself and nothing is copied. The
// first miss caps kept at the prefix before it, so survivors after it
// are appended to a copy and eps is never written.
func sift(eps, kept []*cluster.Pod, i int, ok bool) []*cluster.Pod {
	switch cut := len(kept) < len(eps); {
	case !ok && !cut:
		return eps[:i:i]
	case ok && cut:
		return append(kept, eps[i])
	}
	return kept
}

func (sc *Sidecar) pickRR(service string, eps []*cluster.Pod) *cluster.Pod {
	u := sc.upstream(service)
	i := u.rr
	u.rr++
	return eps[i%uint64(len(eps))]
}

// pickLeast implements least-request as power-of-two-choices (Envoy's
// algorithm): sample two distinct endpoints at random and take the one
// with fewer outstanding requests. Randomized sampling avoids the
// deterministic-tie-break pathology where an idle (because slow)
// replica at position zero absorbs every request.
func (sc *Sidecar) pickLeast(eps []*cluster.Pod) *cluster.Pod {
	if len(eps) == 1 {
		return eps[0]
	}
	i := sc.mesh.rng.Intn(len(eps))
	j := sc.mesh.rng.Intn(len(eps) - 1)
	if j >= i {
		j++
	}
	a, b := eps[i], eps[j]
	if sc.endpoints[b.Addr()].load() < sc.endpoints[a.Addr()].load() {
		return b
	}
	return a
}

// pickEWMA implements latency-aware adaptive replica selection: score
// each endpoint by its smoothed latency scaled by outstanding load and
// take the minimum (the C3/least-loaded-EWMA family, §3.4 ref [30]).
func (sc *Sidecar) pickEWMA(eps []*cluster.Pod) *cluster.Pod {
	best := eps[0]
	bestScore := sc.ewmaScore(best.Addr())
	for _, ep := range eps[1:] {
		if s := sc.ewmaScore(ep.Addr()); s < bestScore {
			best, bestScore = ep, s
		}
	}
	return best
}

func (sc *Sidecar) ewmaScore(addr simnet.Addr) float64 {
	st := sc.endpoints[addr]
	lat := float64(time.Millisecond) // optimistic prior for unprobed replicas
	if st != nil && st.ewma != 0 {
		lat = st.ewma
	}
	return lat * float64(st.load()+1)
}

// epState returns addr's state for writing, made at the first write.
// Reads take sc.endpoints[addr] as it is.
func (sc *Sidecar) epState(addr simnet.Addr) *endpointState { return entry(&sc.endpoints, addr) }

// regionPath returns the sidecar's health state for the WAN path to a
// remote region (the east-west gateway route), for writing; reads take
// sc.regionPaths[region] as it is. It shares the endpoint state machine
// — consecutive-failure breaker, half-open probes — but lives outside
// the per-address map: the active health checker and outlier sweeper
// never touch it, so a dark path recovers only through breaker trial
// requests, which is all a caller can honestly know about a region it
// cannot see into.
func (sc *Sidecar) regionPath(region string) *endpointState { return entry(&sc.regionPaths, region) }
