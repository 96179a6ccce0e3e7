package mesh

import (
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
)

// FaultPolicy injects faults into calls to a service at the caller's
// sidecar (Istio's VirtualService fault injection): a fixed delay
// and/or an immediate abort, each applied with a probability.
type FaultPolicy struct {
	// DelayProb injects Delay before the call with this probability.
	DelayProb float64
	Delay     time.Duration
	// AbortProb short-circuits the call with AbortStatus.
	AbortProb   float64
	AbortStatus int
}

// IsZero reports whether the policy injects nothing.
func (f FaultPolicy) IsZero() bool { return f.DelayProb == 0 && f.AbortProb == 0 }

// MirrorPolicy duplicates a sampled fraction of requests to a shadow
// service, fire-and-forget (Istio's traffic mirroring). The caller
// never sees the mirror's response.
type MirrorPolicy struct {
	// To is the shadow service name.
	To string
	// Fraction of requests mirrored, in [0, 1].
	Fraction float64
}

// RateLimitPolicy bounds a service's inbound request rate with a token
// bucket enforced at the server-side sidecar; excess requests get 429.
// This is the sidecar-level backpressure §3.6 alludes to.
type RateLimitPolicy struct {
	// RPS is the sustained refill rate. Zero disables the limit.
	RPS float64
	// Burst is the bucket depth in requests (default: int(RPS+1)).
	Burst int
}

// SetFaultPolicy installs fault injection for calls to a service.
func (cp *ControlPlane) SetFaultPolicy(service string, p FaultPolicy) {
	if p.AbortProb > 0 && p.AbortStatus == 0 {
		p.AbortStatus = httpsim.StatusServiceUnavailable
	}
	cp.edit(service, func(pol *servicePolicy) { pol.Fault = &p })
}

// SetMirrorPolicy installs traffic mirroring for calls to a service.
func (cp *ControlPlane) SetMirrorPolicy(service string, p MirrorPolicy) {
	if p.Fraction < 0 || p.Fraction > 1 {
		panic("mesh: mirror fraction must be in [0,1]")
	}
	cp.edit(service, func(pol *servicePolicy) { pol.Mirror = &p })
}

// SetRateLimit installs an inbound rate limit on a service.
func (cp *ControlPlane) SetRateLimit(service string, p RateLimitPolicy) {
	if p.RPS > 0 && p.Burst == 0 {
		p.Burst = int(p.RPS + 1)
	}
	cp.edit(service, func(pol *servicePolicy) { pol.Rate = &p })
}

// tokenBucket is the sidecar-local rate limiter state.
type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// admit consumes one token if available, refilling at p.RPS.
func (tb *tokenBucket) admit(p RateLimitPolicy, now time.Duration) bool {
	if p.RPS <= 0 {
		return true
	}
	if now > tb.last {
		tb.tokens += p.RPS * (now - tb.last).Seconds()
		tb.last = now
		if tb.tokens > float64(p.Burst) {
			tb.tokens = float64(p.Burst)
		}
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// applyInboundRateLimit enforces the service's limit; it returns false
// (and responds 429) when the request must be rejected.
func (sc *Sidecar) applyInboundRateLimit(respond func(*httpsim.Response)) bool {
	p := sc.rateLimitFor(sc.service)
	if p.RPS <= 0 {
		return true
	}
	if sc.bucket == nil {
		sc.bucket = &tokenBucket{tokens: float64(p.Burst), last: sc.mesh.sched.Now()}
	}
	if sc.bucket.admit(p, sc.mesh.sched.Now()) {
		return true
	}
	sc.mesh.metrics.Counter(MetricRequestsTotal,
		metrics.Labels{"service": sc.service, "direction": "inbound", "code": "429"}).Inc()
	respond(httpsim.NewResponse(httpsim.StatusTooManyRequests))
	return false
}

// maybeMirror fire-and-forgets a copy of req to the shadow service.
func (sc *Sidecar) maybeMirror(service string, req *httpsim.Request) {
	p := sc.mirrorPolicyFor(service)
	if p.To == "" || p.Fraction <= 0 || sc.mesh.rng.Float64() >= p.Fraction {
		return
	}
	shadow := req.Clone()
	shadow.Headers.Set(HeaderHost, p.To)
	shadow.Headers.Set(HeaderShadow, "true")
	sc.mesh.metrics.Counter(MetricMirroredTotal, metrics.Labels{"service": service, "to": p.To}).Inc()
	sc.Call(shadow, func(*httpsim.Response, error) {})
}
