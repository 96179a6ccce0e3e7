package mesh

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// This file holds the mesh's self-healing machinery: active health
// checking, passive outlier detection, token-bucket retry budgets, and
// the server-side fault hook the chaos engine drives. Everything runs
// on scheduler timers with deterministic iteration orders, so runs
// with equal seeds are bit-identical.

// healthConnClass keeps probe traffic on its own pooled connection so
// probes neither contend with nor are blocked by request traffic
// (Envoy gives the health checker its own connection pool too).
var healthConnClass = ConnClass{Name: "health", Options: transport.Options{CC: "reno"}}

// ensureDefenses lazily starts the health-check and outlier loops for
// an upstream service once its policies are pushed. Called on every
// outbound Call; a stopped loop restarts here if the policy returns.
func (sc *Sidecar) ensureDefenses(service string) {
	if sc.healthCheckFor(service).Enabled {
		if u := sc.upstream(service); !u.hcActive {
			u.hcActive = true
			sc.healthTick(service)
		}
	}
	if sc.outlierFor(service).Enabled {
		if u := sc.upstream(service); !u.outlierActive {
			u.outlierActive = true
			sc.mesh.sched.After(outlierInterval, func() { sc.outlierSweep(service) })
		}
	}
}

// healthTick probes every current endpoint of the service and
// re-arms itself. The loop exits (and clears its active mark) when
// the policy is withdrawn.
func (sc *Sidecar) healthTick(service string) {
	if !sc.healthCheckFor(service).Enabled {
		sc.upstream(service).hcActive = false
		return
	}
	if eps, ok := sc.discoverEndpoints(service); ok {
		for _, ep := range eps {
			sc.probe(service, ep.Addr())
		}
	}
	sc.mesh.sched.After(healthInterval, func() { sc.healthTick(service) })
}

// probe sends one health-check request to an endpoint and applies the
// verdict to its LB state.
func (sc *Sidecar) probe(service string, addr simnet.Addr) {
	req := httpsim.NewRequest("GET", "/healthz")
	req.Headers.Set(HeaderHost, service)
	req.Headers.Set(HeaderHealth, "1")
	sc.stampIdentity(req)

	client := sc.clientForAddr(addr, healthConnClass)
	client.DoWithin(req, healthTimeout, func(resp *httpsim.Response, err error) {
		if err == httpsim.ErrTimeout {
			// A timed-out probe condemns the probe connection so the
			// next round re-dials rather than waiting out RTO backoff
			// to a possibly-partitioned peer.
			sc.probeResult(service, addr, false)
			client.Conn().Abort()
			return
		}
		sc.probeResult(service, addr, err == nil && resp.Status < 500)
	})
}

// probeResult folds one probe verdict into the endpoint's health via
// the consecutive-success/failure thresholds.
func (sc *Sidecar) probeResult(service string, addr simnet.Addr, ok bool) {
	m := sc.mesh
	st := sc.epState(addr)
	result := "fail"
	if ok {
		result = "ok"
	}
	m.metrics.Counter(MetricHealthProbeTotal,
		metrics.Labels{"service": service, "result": result}).Inc()
	if ok {
		st.hcFails = 0
		st.hcOKs++
		if st.unhealthy && st.hcOKs >= healthHealthyThreshold {
			st.unhealthy = false
			now := m.sched.Now()
			st.warmSince, st.warmUntil = now, now+healthSlowStart
			m.metrics.Counter(MetricHealthTransitionsTotal,
				metrics.Labels{"service": service, "to": "healthy"}).Inc()
		}
		return
	}
	st.hcOKs = 0
	st.hcFails++
	if !st.unhealthy && st.hcFails >= healthUnhealthyThreshold {
		st.unhealthy = true
		m.metrics.Counter(MetricHealthTransitionsTotal,
			metrics.Labels{"service": service, "to": "unhealthy"}).Inc()
		// Envoy's close_connections_on_host_health_failure: tear down
		// request connections to the failed host so in-flight attempts
		// fail fast into the retry path instead of waiting out their
		// per-try timeout against a dead peer.
		sc.abortConnsTo(service, addr)
	}
}

// abortConnsTo aborts every pooled request connection to addr (probe
// connections manage their own lifecycle). Pools are visited in sorted
// class order so equal-seed runs stay bit-identical.
func (sc *Sidecar) abortConnsTo(service string, addr simnet.Addr) {
	var classes []string
	for key, cl := range sc.pools {
		if key.addr == addr && key.class != healthConnClass.Name && !cl.Closed() {
			classes = append(classes, key.class)
		}
	}
	sort.Strings(classes)
	for _, class := range classes {
		sc.mesh.metrics.Counter(MetricHealthConnAbortsTotal,
			metrics.Labels{"service": service}).Inc()
		sc.pools[poolKey{addr: addr, class: class}].Conn().Abort()
	}
}

// evictPool drops the pooled connection for key if it is still cl, so
// the next attempt re-dials while cl's in-flight requests keep
// draining. The identity check keeps a late timer from evicting a
// replacement connection.
func (sc *Sidecar) evictPool(key poolKey, cl *httpsim.Client) {
	if cur, ok := sc.pools[key]; ok && cur == cl {
		delete(sc.pools, key)
	}
}

// clientForAddr is clientFor keyed by address (probes target endpoints
// that may have left the endpoint list).
func (sc *Sidecar) clientForAddr(addr simnet.Addr, class ConnClass) *httpsim.Client {
	key := poolKey{addr: addr, class: class.Name}
	cl, ok := sc.pools[key]
	if !ok || cl.Closed() {
		cl = httpsim.NewClient(sc.pod.Host(), addr, InboundPort, class.Options)
		if sc.pools == nil {
			sc.pools = make(map[poolKey]*httpsim.Client)
		}
		sc.pools[key] = cl
		if sc.connHook != nil {
			sc.connHook(cl.Conn(), class)
		}
	}
	return cl
}

// outlierSweep judges every endpoint's request window and re-arms
// itself, exiting when the policy is withdrawn.
func (sc *Sidecar) outlierSweep(service string) {
	if !sc.outlierFor(service).Enabled {
		sc.upstream(service).outlierActive = false
		return
	}
	if eps, ok := sc.discoverEndpoints(service); ok {
		sc.sweepOutliers(service, eps)
	}
	sc.mesh.sched.After(outlierInterval, func() { sc.outlierSweep(service) })
}

// sweepOutliers ejects endpoints whose window failed too often or ran
// far slower than the best peer, subject to the panic threshold.
func (sc *Sidecar) sweepOutliers(service string, eps []*cluster.Pod) {
	m := sc.mesh
	now := m.sched.Now()

	// Best peer latency EWMA among non-ejected endpoints, for the
	// latency-factor criterion.
	bestEwma := 0.0
	available := 0
	for _, ep := range eps {
		st := sc.endpoints[ep.Addr()]
		if st != nil && (st.unhealthy || now < st.ejectedUntil) {
			continue
		}
		available++
		if st != nil && st.ewma > 0 && (bestEwma == 0 || st.ewma < bestEwma) {
			bestEwma = st.ewma
		}
	}
	floor := int(math.Ceil(outlierPanicThreshold * float64(len(eps))))

	for _, ep := range eps {
		st := sc.endpoints[ep.Addr()]
		if st == nil {
			continue // never attempted: an empty window, below outlierMinRequests
		}
		total, fail := st.winTotal, st.winFail
		st.winTotal, st.winFail = 0, 0
		if now < st.ejectedUntil || total < outlierMinRequests {
			continue
		}
		reason := ""
		switch {
		case float64(fail) >= outlierFailureThreshold*float64(total):
			reason = "failure_rate"
		case bestEwma > 0 && st.ewma > outlierLatencyFactor*bestEwma:
			reason = "latency"
		}
		if reason == "" {
			continue
		}
		if available-1 < floor {
			m.metrics.Counter(MetricOutlierPanicTotal,
				metrics.Labels{"service": service}).Inc()
			continue
		}
		st.ejectedUntil = now + outlierBaseEjection
		available--
		m.metrics.Counter(MetricOutlierEjectionsTotal,
			metrics.Labels{"service": service, "reason": reason}).Inc()
	}
}

// --- retry budgets ---

// A retry budget is a Finagle-style token bucket per upstream service
// (upstreamState.tokens): each new logical call deposits BudgetRatio
// tokens, each retry spends one, and the bucket is capped (and
// initially filled) at the burst size. Sustained retry traffic is
// thereby bounded to BudgetRatio of request traffic, which is what
// kills retry storms.

// budget returns the service's state with its retry budget started.
func (sc *Sidecar) budget(service string, p RetryPolicy) *upstreamState {
	u := sc.upstream(service)
	if !u.budgeted {
		u.budgeted, u.tokens = true, p.budgetBurst()
	}
	return u
}

// depositRetryTokens credits the budget for one new logical call.
func (sc *Sidecar) depositRetryTokens(service string, p RetryPolicy) {
	if p.BudgetRatio <= 0 {
		return
	}
	u := sc.budget(service, p)
	u.tokens += p.BudgetRatio
	if cap := p.budgetBurst(); u.tokens > cap {
		u.tokens = cap
	}
}

// spendRetryToken authorizes one retry; false means the budget is
// exhausted and the caller must surface the failure instead.
func (sc *Sidecar) spendRetryToken(service string, p RetryPolicy) bool {
	if p.BudgetRatio <= 0 {
		return true
	}
	u := sc.budget(service, p)
	if u.tokens < 1 {
		return false
	}
	u.tokens--
	return true
}

// --- server-side fault injection (driven by internal/chaos) ---

// ServerFault configures an error-rate gray failure at a pod: its
// "application" answers a fraction of requests with an error status
// (after an optional stall) while the sidecar's health probes keep
// passing.
type ServerFault struct {
	// Prob is the per-request error probability.
	Prob float64
	// Status is the injected response code (default 500).
	Status int
	// Delay stalls the injected error, modeling a struggling rather
	// than fast-failing process.
	Delay time.Duration
	// Seed drives the fault's private PRNG.
	Seed int64
}

type serverFaultState struct {
	cfg ServerFault
	rng *rand.Rand
}

func (s *serverFaultState) status() int {
	if s.cfg.Status == 0 {
		return httpsim.StatusInternalServerError
	}
	return s.cfg.Status
}

// SetServerFault installs (Prob > 0) or clears (Prob <= 0) the pod's
// injected gray failure.
func (sc *Sidecar) SetServerFault(f ServerFault) {
	if f.Prob <= 0 {
		sc.serverFault = nil
		return
	}
	if f.Prob > 1 {
		f.Prob = 1
	}
	sc.serverFault = &serverFaultState{cfg: f, rng: rand.New(rand.NewSource(f.Seed))}
}
