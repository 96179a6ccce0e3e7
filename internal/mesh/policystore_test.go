package mesh

import (
	"reflect"
	"testing"
	"time"
)

// policyCase drives one servicePolicy field through its public setter
// and back out of the sidecar accessor that reads it. All cases target
// service "backend".
type policyCase struct {
	field string // servicePolicy field name
	// set installs the value the accessor must then return as want;
	// reset is a later call on the same field, after which the accessor
	// must return afterReset.
	set, reset func(cp *ControlPlane)
	read       func(tb *testbed) any
	unset      any // what the accessor returns before any setter ran
	want       any
	afterReset any
	wire       int // wireBytes cost of the set value
}

var policyCases = []policyCase{
	{
		field: "Rule",
		set: func(cp *ControlPlane) {
			cp.SetRouteRule(RouteRule{
				Service:       "backend",
				HeaderRoutes:  []HeaderRoute{{Header: "x-canary", Value: "1", Subset: SubsetRef{Key: "version", Value: "v1"}}},
				DefaultSubset: SubsetRef{Key: "version", Value: "v2"},
			})
		},
		reset: func(cp *ControlPlane) {
			cp.SetRouteRule(RouteRule{Service: "backend", DefaultSubset: SubsetRef{Key: "version", Value: "v1"}})
		},
		read: func(tb *testbed) any {
			if r := tb.fe.routeRuleFor("backend"); r != nil {
				return r.DefaultSubset
			}
			return nil
		},
		unset: nil, want: SubsetRef{Key: "version", Value: "v2"}, afterReset: SubsetRef{Key: "version", Value: "v1"},
		wire: 32 + 24,
	},
	{
		field: "LB",
		set:   func(cp *ControlPlane) { cp.SetLBPolicy("backend", LBRandom) },
		reset: func(cp *ControlPlane) { cp.SetLBPolicy("backend", LBEWMA) },
		read:  func(tb *testbed) any { return tb.fe.lbPolicyFor("backend") },
		unset: LBRoundRobin, want: LBRandom, afterReset: LBEWMA, wire: 40,
	},
	{
		field: "Retry",
		set:   func(cp *ControlPlane) { cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 7}) },
		reset: func(cp *ControlPlane) { cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 1}) },
		read:  func(tb *testbed) any { return tb.fe.retryPolicyFor("backend") },
		unset: DefaultRetryPolicy, want: RetryPolicy{MaxRetries: 7}, afterReset: RetryPolicy{MaxRetries: 1}, wire: 40,
	},
	{
		field: "Breaker",
		set:   func(cp *ControlPlane) { cp.SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 9}) },
		reset: func(cp *ControlPlane) { cp.SetCircuitBreaker("backend", CircuitBreakerPolicy{ConsecutiveFailures: 1}) },
		read:  func(tb *testbed) any { return tb.fe.breakerFor("backend") },
		unset: DefaultCircuitBreaker, want: CircuitBreakerPolicy{ConsecutiveFailures: 9},
		afterReset: CircuitBreakerPolicy{ConsecutiveFailures: 1}, wire: 40,
	},
	{
		field: "Hedge",
		set:   func(cp *ControlPlane) { cp.SetHedgePolicy("backend", HedgePolicy{Delay: time.Millisecond}) },
		reset: func(cp *ControlPlane) { cp.SetHedgePolicy("backend", HedgePolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.hedgePolicyFor("backend") },
		unset: HedgePolicy{}, want: HedgePolicy{Delay: time.Millisecond}, afterReset: HedgePolicy{}, wire: 40,
	},
	{
		field: "Fault",
		set:   func(cp *ControlPlane) { cp.SetFaultPolicy("backend", FaultPolicy{DelayProb: 1, Delay: time.Second}) },
		reset: func(cp *ControlPlane) { cp.SetFaultPolicy("backend", FaultPolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.faultPolicyFor("backend") },
		unset: FaultPolicy{}, want: FaultPolicy{DelayProb: 1, Delay: time.Second}, afterReset: FaultPolicy{}, wire: 40,
	},
	{
		field: "Mirror",
		set:   func(cp *ControlPlane) { cp.SetMirrorPolicy("backend", MirrorPolicy{To: "shadow", Fraction: 1}) },
		reset: func(cp *ControlPlane) { cp.SetMirrorPolicy("backend", MirrorPolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.mirrorPolicyFor("backend") },
		unset: MirrorPolicy{}, want: MirrorPolicy{To: "shadow", Fraction: 1}, afterReset: MirrorPolicy{}, wire: 40,
	},
	{
		field: "Rate",
		set:   func(cp *ControlPlane) { cp.SetRateLimit("backend", RateLimitPolicy{RPS: 5, Burst: 2}) },
		reset: func(cp *ControlPlane) { cp.SetRateLimit("backend", RateLimitPolicy{}) },
		read:  func(tb *testbed) any { return tb.b1.rateLimitFor("backend") },
		unset: RateLimitPolicy{}, want: RateLimitPolicy{RPS: 5, Burst: 2}, afterReset: RateLimitPolicy{}, wire: 40,
	},
	{
		field: "Admission",
		set: func(cp *ControlPlane) {
			cp.SetAdmissionPolicy("backend", AdmissionPolicy{Enabled: true, QueueLimit: 3})
		},
		reset: func(cp *ControlPlane) { cp.SetAdmissionPolicy("backend", AdmissionPolicy{}) },
		read:  func(tb *testbed) any { return tb.b1.admissionPolicyFor("backend") },
		unset: AdmissionPolicy{}, want: AdmissionPolicy{Enabled: true, QueueLimit: 3}, afterReset: AdmissionPolicy{}, wire: 40,
	},
	{
		field: "Health",
		set:   func(cp *ControlPlane) { cp.SetHealthCheck("backend", HealthCheckPolicy{Interval: time.Second}) },
		reset: func(cp *ControlPlane) { cp.SetHealthCheck("backend", HealthCheckPolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.healthCheckFor("backend") },
		unset: HealthCheckPolicy{}, want: HealthCheckPolicy{Interval: time.Second}, afterReset: HealthCheckPolicy{}, wire: 40,
	},
	{
		field: "Outlier",
		set:   func(cp *ControlPlane) { cp.SetOutlierPolicy("backend", OutlierPolicy{Interval: time.Second}) },
		reset: func(cp *ControlPlane) { cp.SetOutlierPolicy("backend", OutlierPolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.outlierFor("backend") },
		unset: OutlierPolicy{}, want: OutlierPolicy{Interval: time.Second}, afterReset: OutlierPolicy{}, wire: 40,
	},
	{
		field: "Locality",
		set:   func(cp *ControlPlane) { cp.SetLocalityPolicy("backend", LocalityPolicy{Mode: LocalityStrict}) },
		reset: func(cp *ControlPlane) { cp.SetLocalityPolicy("backend", LocalityPolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.localityFor("backend") },
		unset: LocalityPolicy{}, want: LocalityPolicy{Mode: LocalityStrict}, afterReset: LocalityPolicy{}, wire: 40,
	},
	{
		field: "Fallback",
		set:   func(cp *ControlPlane) { cp.SetFallbackPolicy("backend", FallbackPolicy{Enabled: true}) },
		reset: func(cp *ControlPlane) { cp.SetFallbackPolicy("backend", FallbackPolicy{}) },
		read:  func(tb *testbed) any { return tb.fe.fallbackFor("backend") },
		unset: FallbackPolicy{}, want: FallbackPolicy{Enabled: true}, afterReset: FallbackPolicy{}, wire: 40,
	},
}

// TestPolicyRoundTrip is the contract of the single policy store: every
// servicePolicy field is settable through a public setter, reaches the
// sidecar accessor in both propagation modes (immediately when instant;
// only once the push lands when distributed), is charged on the wire,
// and a later setter call replaces the value without touching the
// snapshot a sidecar already holds.
func TestPolicyRoundTrip(t *testing.T) {
	covered := make(map[string]bool)
	for _, c := range policyCases {
		covered[c.field] = true
	}
	typ := reflect.TypeOf(servicePolicy{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("servicePolicy.%s has no policyCases row: set, distribute and read it here", name)
		}
	}
	if len(covered) != typ.NumField() {
		t.Errorf("policyCases names %d fields, servicePolicy has %d", len(covered), typ.NumField())
	}

	for _, c := range policyCases {
		for _, distributed := range []bool{false, true} {
			mode := "instant"
			if distributed {
				mode = "distributed"
			}
			t.Run(c.field+"/"+mode, func(t *testing.T) {
				tb := buildBed(t, Config{Seed: 1}, echoBackend)
				cp := tb.m.ControlPlane()
				if distributed {
					cp.EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})
				}
				// expect checks the accessor right after a setter call —
				// under distribution the sidecar must still see stale — and
				// again once the push has had time to land.
				expect := func(step string, stale, fresh any) {
					t.Helper()
					if distributed {
						if got := c.read(tb); got != stale {
							t.Fatalf("%s: %v visible before the push landed, want %v", step, got, stale)
						}
						tb.sched.RunFor(time.Second)
					}
					if got := c.read(tb); got != fresh {
						t.Fatalf("%s: accessor returned %v, want %v", step, got, fresh)
					}
				}
				wire := func() int { return tb.b1.policyFor("backend").wireBytes() }

				expect("unset", c.unset, c.unset)
				before := wire()
				c.set(cp)
				expect("set", c.unset, c.want)
				if got := wire() - before; got != c.wire {
					t.Fatalf("wireBytes grew by %d, want %d", got, c.wire)
				}
				c.reset(cp)
				expect("reset", c.want, c.afterReset)
			})
		}
	}
}
