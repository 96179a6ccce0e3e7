package mesh

import (
	"fmt"
	"time"
)

// SubsetRef selects a labeled subset of a service's endpoints, e.g.
// {Key: "version", Value: "v1"}. The zero value means "all endpoints".
type SubsetRef struct {
	Key, Value string
}

// IsZero reports whether the reference selects all endpoints.
func (s SubsetRef) IsZero() bool { return s.Key == "" }

// String renders the subset for logs.
func (s SubsetRef) String() string {
	if s.IsZero() {
		return "*"
	}
	return fmt.Sprintf("%s=%s", s.Key, s.Value)
}

// HeaderRoute routes requests whose header matches a value to a subset
// — the mesh-level mechanism behind the paper's priority routing
// (optimization 3a: forward to the high- or low-priority pod).
type HeaderRoute struct {
	Header string
	Value  string
	Subset SubsetRef
}

// RouteRule is the routing configuration for one service. Matching
// order: HeaderRoutes first, then DefaultSubset.
type RouteRule struct {
	Service       string
	HeaderRoutes  []HeaderRoute
	DefaultSubset SubsetRef
}

// RetryPolicy controls sidecar-level resilience for a service.
type RetryPolicy struct {
	// MaxRetries bounds re-attempts after the first try.
	MaxRetries int
	// PerTryTimeout aborts an attempt that has not answered in time.
	// Zero disables the timeout.
	PerTryTimeout time.Duration
	// RetryOn5xx also retries server errors (not just transport
	// failures).
	RetryOn5xx bool

	// BackoffBase, when > 0, spaces retries with full-jitter
	// exponential backoff: attempt n waits U(0, min(Base<<(n-1), Max)]
	// instead of re-firing immediately, de-synchronizing retry waves
	// under overload. Zero keeps the legacy immediate retry.
	BackoffBase time.Duration
	// BackoffMax caps the backoff window. Zero with a non-zero
	// BackoffBase means 10× the base.
	BackoffMax time.Duration

	// BudgetRatio, when > 0, enables a Finagle-style token-bucket
	// retry budget: every new logical call deposits BudgetRatio tokens
	// and each retry spends one, so sustained retry traffic is capped
	// at that fraction of request traffic. Denied retries surface the
	// underlying failure. Zero disables the budget (unlimited retries
	// up to MaxRetries).
	BudgetRatio float64
	// BudgetBurst caps accumulated tokens (and is the initial fill).
	// Zero with a non-zero BudgetRatio means 3.
	BudgetBurst float64
}

// backoffFor returns the wait before retry attempt n (1-based), or 0
// for an immediate retry.
func (p RetryPolicy) backoffFor(n int) time.Duration {
	if p.BackoffBase <= 0 || n < 1 {
		return 0
	}
	max := p.BackoffMax
	if max <= 0 {
		max = 10 * p.BackoffBase
	}
	d := p.BackoffBase
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// budgetBurst returns the effective token cap.
func (p RetryPolicy) budgetBurst() float64 {
	if p.BudgetBurst > 0 {
		return p.BudgetBurst
	}
	return 3
}

// DefaultRetryPolicy mirrors a conservative Envoy default.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 2, PerTryTimeout: 10 * time.Second, RetryOn5xx: true}

// CircuitBreakerPolicy ejects underperforming endpoints: after
// ConsecutiveFailures errors an endpoint is skipped for OpenFor.
type CircuitBreakerPolicy struct {
	ConsecutiveFailures int
	OpenFor             time.Duration
}

// DefaultCircuitBreaker is applied to services with no explicit policy.
var DefaultCircuitBreaker = CircuitBreakerPolicy{ConsecutiveFailures: 5, OpenFor: 30 * time.Second}

// HealthCheckPolicy enables active health checking for a service:
// every sidecar probes each endpoint every healthInterval and removes
// endpoints failing healthUnhealthyThreshold consecutive probes from LB
// rotation until healthHealthyThreshold consecutive probes succeed —
// Envoy's HTTP health checker. Probes are answered by the destination
// sidecar itself, so they detect crashes and partitions but
// deliberately not gray application failures (that is outlier
// detection's job).
type HealthCheckPolicy struct {
	// Enabled turns the probe loop on.
	Enabled bool
}

// OutlierPolicy enables passive (success-rate and latency) outlier
// detection: each sidecar periodically sweeps its per-endpoint request
// windows and temporarily ejects endpoints that fail too often or run
// far slower than their best peer — Envoy's outlier detection, the
// mesh's answer to gray failures that active probes cannot see.
type OutlierPolicy struct {
	// Enabled turns the sweep loop, and panic routing, on.
	Enabled bool
}

// The tuning of health checking and outlier detection: E15's values,
// the only ones any run uses (DESIGN.md, "Tuning knobs are constants").
const (
	healthInterval = 25 * time.Millisecond // between probes of each endpoint
	healthTimeout  = 20 * time.Millisecond // fails an unanswered probe
	// Consecutive probe failures that mark an endpoint unhealthy, and
	// consecutive successes that restore it.
	healthUnhealthyThreshold = 2
	healthHealthyThreshold   = 2
	// healthSlowStart ramps a freshly-recovered endpoint's traffic
	// share linearly over this window instead of returning it to full
	// rotation at once (Envoy's LB slow-start mode). Without it, a
	// recovered endpoint is slammed with a full load burst over cold
	// connections, and the resulting queue spike shows up as a latency
	// wave across the whole service.
	healthSlowStart = 1500 * time.Millisecond

	outlierInterval    = 100 * time.Millisecond // between sweeps
	outlierMinRequests = 3                      // the smallest window judged
	// outlierFailureThreshold ejects an endpoint whose window fails at
	// least this share of requests; outlierLatencyFactor one whose
	// latency EWMA exceeds this multiple of the best peer's, catching
	// slow-pod gray failures that still answer 200s.
	outlierFailureThreshold = 0.4
	outlierLatencyFactor    = 5
	outlierBaseEjection     = 3 * time.Second // how long an ejection lasts
	// outlierPanicThreshold stops ejections (and re-admits everything
	// for routing) when the available fraction of endpoints would drop
	// below it — Envoy's panic routing, trading failure isolation for
	// capacity when most of the fleet looks bad.
	outlierPanicThreshold = 0.5
)

// HedgePolicy issues a redundant request to a second replica if the
// first has not answered within Delay — the "low latency via
// redundancy" technique (§3.4, ref [50]). Zero Delay disables hedging.
type HedgePolicy struct {
	Delay time.Duration
}

// LBPolicy names a load-balancing algorithm.
type LBPolicy string

// Supported load-balancing policies.
const (
	LBRoundRobin   LBPolicy = "round_robin"
	LBRandom       LBPolicy = "random"
	LBLeastRequest LBPolicy = "least_request"
	LBEWMA         LBPolicy = "ewma" // latency-aware adaptive replica selection (§3.4, ref [30])
)

// ControlPlane is the mesh's centralized configuration authority:
// service discovery (via the cluster) and traffic policy, pushed to
// sidecars, plus workload certificates (certs.go). By default
// propagation is instantaneous shared state; EnableDistribution
// switches to xDS-style simulated pushes where each sidecar routes on
// its own possibly-stale snapshot.
type ControlPlane struct {
	mesh *Mesh
	// policy is the one per-service policy store. Instant-mode sidecars
	// read its entries live; distributors copy them into pushed
	// snapshots. All writes go through edit.
	policy map[string]*servicePolicy

	certSerial uint64

	// dists holds the distribution instances once EnableDistribution
	// has switched the mesh to simulated config propagation: one scoped
	// to no region, or one per region in region order. fed is the
	// summary exchange between them.
	dists []*distributor
	fed   *federation

	version uint64
}

// servicePolicy is everything the operator has set for one service: one
// field per policy kind, nil = unset (the accessor's default applies).
// A set field is replaced by the next setter call, never mutated in
// place, so the value copy a distributor pushes to sidecars stays an
// immutable snapshot however the store moves on.
type servicePolicy struct {
	Rule      *RouteRule
	LB        *LBPolicy
	Retry     *RetryPolicy
	Breaker   *CircuitBreakerPolicy
	Hedge     *HedgePolicy
	Fault     *FaultPolicy
	Mirror    *MirrorPolicy
	Rate      *RateLimitPolicy
	Admission *AdmissionPolicy
	Health    *HealthCheckPolicy
	Outlier   *OutlierPolicy
	Locality  *LocalityPolicy
	Fallback  *FallbackPolicy
}

// noPolicy is what a service nobody configured reads as. Never written.
var noPolicy servicePolicy

// wireBytes estimates the encoded size of the set policies
// (protobuf-ish costs).
func (p *servicePolicy) wireBytes() int {
	n := 0
	for _, set := range []bool{
		p.LB != nil, p.Retry != nil, p.Breaker != nil, p.Hedge != nil,
		p.Fault != nil, p.Mirror != nil, p.Rate != nil, p.Admission != nil,
		p.Health != nil, p.Outlier != nil, p.Locality != nil, p.Fallback != nil,
	} {
		if set {
			n += 40
		}
	}
	if p.Rule != nil {
		n += 32 + 24*len(p.Rule.HeaderRoutes)
	}
	return n
}

func newControlPlane(m *Mesh) *ControlPlane {
	return &ControlPlane{
		mesh:   m,
		policy: make(map[string]*servicePolicy),
	}
}

// Version returns the configuration version (bumped on every change).
func (cp *ControlPlane) Version() uint64 { return cp.version }

func (cp *ControlPlane) bump() { cp.version++ }

// SetPushDelay models control-plane staleness — the xDS-style lag
// between "operator applied config" and "every sidecar acts on it" — as
// push suppression: every distributor holds staged updates back by d,
// so sidecars keep routing on their old snapshots. Zero restores normal
// propagation. No-op in instant-propagation mode.
func (cp *ControlPlane) SetPushDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	for _, dist := range cp.distributors() {
		dist.srv.SetHold(d)
	}
}

// Distributed reports whether simulated config distribution is
// enabled (single or federated).
func (cp *ControlPlane) Distributed() bool { return len(cp.distributors()) > 0 }

// CrashDistribution kills every distributing control-plane process:
// the pod drops off the network, in-flight push connections die with
// its sockets, and the ctrlplane server loses all volatile push state
// (ctrlplane.Server.Crash). Sidecars keep routing on their
// last-acknowledged snapshots — static stability — while
// configuration changes made during the outage accumulate in the
// resource store for the recovery resync.
func (cp *ControlPlane) CrashDistribution() {
	for _, d := range cp.distributors() {
		d.crash()
	}
}

// RecoverDistribution restarts crashed control-plane processes into a
// new epoch: the pods rejoin the network and every subscriber is
// full-resynced through the admission window.
func (cp *ControlPlane) RecoverDistribution() {
	for _, d := range cp.distributors() {
		d.recover()
	}
}

// ResubscribePod re-registers a restarted pod's sidecar with its
// distributing control plane — the fresh proxy process of a real
// restart re-subscribes (idempotently replacing the old registration)
// and blocks on a new bootstrap fetch. When the control plane is down
// the proxy comes up on the sidecar's last-good snapshot instead and
// is resynced after recovery. No-op in instant-propagation mode or
// for pods without sidecars.
func (cp *ControlPlane) ResubscribePod(name string) {
	sc := cp.mesh.sidecars[name]
	if sc == nil || !cp.Distributed() {
		return
	}
	cp.distributorFor(sc.pod).reregister(sc)
}

// edit is the one way policy is written: it applies a validated change
// to the service's store entry (created on first use), then
// redistributes the service's resource when distribution is enabled.
func (cp *ControlPlane) edit(service string, change func(*servicePolicy)) {
	if service == "" {
		panic("mesh: policy needs a service name")
	}
	pol := cp.policy[service]
	if pol == nil {
		pol = &servicePolicy{}
		cp.policy[service] = pol
	}
	change(pol)
	cp.bump()
	for _, d := range cp.distributors() {
		d.refreshService(service)
	}
}

// policyOf returns the store entry for service; never nil.
func (cp *ControlPlane) policyOf(service string) *servicePolicy {
	if pol := cp.policy[service]; pol != nil {
		return pol
	}
	return &noPolicy
}

// SetRouteRule installs (replacing) the routing rule for a service.
func (cp *ControlPlane) SetRouteRule(r RouteRule) {
	cp.edit(r.Service, func(pol *servicePolicy) { pol.Rule = &r })
}

// RouteRuleFor returns the service's rule, or nil.
func (cp *ControlPlane) RouteRuleFor(service string) *RouteRule { return cp.policyOf(service).Rule }

// SetLBPolicy selects the load balancer for a service.
func (cp *ControlPlane) SetLBPolicy(service string, p LBPolicy) {
	switch p {
	case LBRoundRobin, LBRandom, LBLeastRequest, LBEWMA:
	default:
		panic(fmt.Sprintf("mesh: unknown LB policy %q", p))
	}
	cp.edit(service, func(pol *servicePolicy) { pol.LB = &p })
}

// LBPolicyFor returns the service's LB policy (round robin by default).
func (cp *ControlPlane) LBPolicyFor(service string) LBPolicy {
	return deref(cp.policyOf(service).LB, LBRoundRobin)
}

// SetRetryPolicy configures retries for a service.
func (cp *ControlPlane) SetRetryPolicy(service string, p RetryPolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Retry = &p })
}

// SetCircuitBreaker configures ejection for a service's endpoints.
func (cp *ControlPlane) SetCircuitBreaker(service string, p CircuitBreakerPolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Breaker = &p })
}

// SetHealthCheck configures active health checking for a service's
// endpoints. A zero policy disables it.
func (cp *ControlPlane) SetHealthCheck(service string, p HealthCheckPolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Health = &p })
}

// SetOutlierPolicy configures passive outlier detection for a
// service's endpoints. A zero policy disables it.
func (cp *ControlPlane) SetOutlierPolicy(service string, p OutlierPolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Outlier = &p })
}

// SetLocalityPolicy configures zone-aware endpoint selection for a
// service. A zero policy disables locality (the default).
func (cp *ControlPlane) SetLocalityPolicy(service string, p LocalityPolicy) {
	switch p.Mode {
	case LocalityDisabled, LocalityStrict, LocalityFailover,
		LocalityRegionOnly, LocalityLadder:
	default:
		panic(fmt.Sprintf("mesh: unknown locality mode %q", p.Mode))
	}
	if p.PanicThreshold < 0 || p.PanicThreshold > 1 {
		panic("mesh: locality PanicThreshold must be in [0, 1]")
	}
	cp.edit(service, func(pol *servicePolicy) { pol.Locality = &p })
}

// SetFallbackPolicy configures graceful degradation for calls to a
// service. A zero policy disables it.
func (cp *ControlPlane) SetFallbackPolicy(service string, p FallbackPolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Fallback = &p })
}

// SetHedgePolicy configures redundant requests for a service.
func (cp *ControlPlane) SetHedgePolicy(service string, p HedgePolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Hedge = &p })
}
