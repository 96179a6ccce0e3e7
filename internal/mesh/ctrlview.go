package mesh

import "meshlayer/internal/cluster"

// This file is the sidecar's read path for routing state. Policy has
// one store (ControlPlane.policy) and one read, policyFor: in instant-
// propagation mode (sc.ctrl == nil) it hands back the live store entry;
// with distribution enabled, the copy in the sidecar's own pushed
// snapshot, so a sidecar acts on possibly-stale policy until the next
// push lands. The typed accessors below only apply defaults. Endpoints
// (discoverEndpoints) and Remote (locality.go's remoteTiers) are the
// other two mode branches: they are discovery state the cluster or a
// peer control plane owns, not operator policy, so they have no store
// entry to read.

// ctrlState returns this sidecar's snapshotted state for service and
// whether distribution is enabled at all.
func (sc *Sidecar) ctrlState(service string) (*serviceState, bool) {
	if sc.ctrl == nil {
		return nil, false
	}
	return sc.ctrl.state(service), true
}

// discoverEndpoints returns the service's endpoints as this sidecar
// currently knows them. ok=false means the service is unknown.
func (sc *Sidecar) discoverEndpoints(service string) ([]*cluster.Pod, bool) {
	if st, dist := sc.ctrlState(service); dist {
		if st == nil {
			return nil, false
		}
		return st.Eps, true
	}
	svc := sc.mesh.cluster.Service(service)
	if svc == nil {
		return nil, false
	}
	return svc.Endpoints(), true
}

// policyFor returns the policies this sidecar currently acts on for
// service; never nil. Callers only read it.
func (sc *Sidecar) policyFor(service string) *servicePolicy {
	if st, dist := sc.ctrlState(service); dist {
		if st == nil {
			return &noPolicy
		}
		return &st.servicePolicy
	}
	return sc.mesh.cp.policyOf(service)
}

// deref reads a nil-means-unset policy field.
func deref[T any](p *T, unset T) T {
	if p != nil {
		return *p
	}
	return unset
}

func (sc *Sidecar) routeRuleFor(service string) *RouteRule {
	return sc.policyFor(service).Rule
}

func (sc *Sidecar) lbPolicyFor(service string) LBPolicy {
	return deref(sc.policyFor(service).LB, LBRoundRobin)
}

func (sc *Sidecar) retryPolicyFor(service string) RetryPolicy {
	return deref(sc.policyFor(service).Retry, DefaultRetryPolicy)
}

func (sc *Sidecar) breakerFor(service string) CircuitBreakerPolicy {
	return deref(sc.policyFor(service).Breaker, DefaultCircuitBreaker)
}

func (sc *Sidecar) hedgePolicyFor(service string) HedgePolicy {
	return deref(sc.policyFor(service).Hedge, HedgePolicy{})
}

func (sc *Sidecar) faultPolicyFor(service string) FaultPolicy {
	return deref(sc.policyFor(service).Fault, FaultPolicy{})
}

func (sc *Sidecar) mirrorPolicyFor(service string) MirrorPolicy {
	return deref(sc.policyFor(service).Mirror, MirrorPolicy{})
}

func (sc *Sidecar) rateLimitFor(service string) RateLimitPolicy {
	return deref(sc.policyFor(service).Rate, RateLimitPolicy{})
}

func (sc *Sidecar) admissionPolicyFor(service string) AdmissionPolicy {
	return deref(sc.policyFor(service).Admission, AdmissionPolicy{})
}

func (sc *Sidecar) healthCheckFor(service string) HealthCheckPolicy {
	return deref(sc.policyFor(service).Health, HealthCheckPolicy{})
}

func (sc *Sidecar) outlierFor(service string) OutlierPolicy {
	return deref(sc.policyFor(service).Outlier, OutlierPolicy{})
}

func (sc *Sidecar) localityFor(service string) LocalityPolicy {
	return deref(sc.policyFor(service).Locality, LocalityPolicy{})
}

func (sc *Sidecar) fallbackFor(service string) FallbackPolicy {
	return deref(sc.policyFor(service).Fallback, FallbackPolicy{})
}
