package mesh

import (
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/trace"
)

// This file implements sidecar-level graceful degradation: per-route
// fallback policies let a caller serve a partial (degraded) response
// when an upstream is unavailable, instead of failing the whole call
// tree. Degraded responses are stamped with HeaderDegraded naming the
// service that was papered over, and the stamp is carried back through
// the tree with the same provenance mechanism the paper uses for
// priorities (internal/core): applications compose fresh responses and
// drop child headers, so each sidecar records (x-request-id -> origin)
// when a degraded child response arrives and restores the header onto
// the response its own application sends upstream.

// FallbackPolicy configures graceful degradation for calls to a
// destination service: when a call fails terminally (retries and
// budget exhausted, or no endpoint reachable), the calling sidecar
// synthesizes a degraded response — a 200, so the caller's application
// proceeds with the partial content — instead of surfacing the error.
type FallbackPolicy struct {
	// Enabled turns the fallback on.
	Enabled bool
}

// The fallback's tuning: E17's values, the only ones any run uses.
const (
	// fallbackBodyBytes is the synthesized body size — far smaller than
	// the real response (an empty ratings list, a cached stub).
	fallbackBodyBytes = 256
	// fallbackAfter bounds how long the call chases a real response
	// before the sidecar serves the degraded one (the Hystrix-style
	// fallback deadline). Without it a dead upstream only fails after
	// the full retry ladder (MaxRetries x PerTryTimeout), by which time
	// the callers up the tree have timed out themselves and the
	// fallback saves nothing. It must sit below the callers' per-try
	// timeouts to be useful.
	fallbackAfter = 400 * time.Millisecond
)

// degradedTTL is how long a degraded-provenance record is kept when no
// response of its request restores it; the table's next sweep then
// deletes it.
const degradedTTL = 2 * time.Minute

// maybeFallback intercepts a terminally-failed call: when the
// destination has a fallback policy it synthesizes the degraded
// response and clears the error. Returns the response to deliver.
func (c *call) maybeFallback(resp *httpsim.Response, err error) (*httpsim.Response, error) {
	m := c.sc.mesh
	failed := err != nil || resp == nil || resp.Status >= 500
	if failed {
		if c.sc.fallbackFor(c.service).Enabled {
			resp = httpsim.NewResponse(httpsim.StatusOK)
			resp.BodyBytes = fallbackBodyBytes
			resp.Headers.Set(HeaderDegraded, c.service)
			err = nil
			m.metrics.Counter(MetricFallbackServedTotal,
				metrics.Labels{"service": c.service}).Inc()
			if c.span != 0 {
				m.tracer.Degrade(c.span, c.service)
			}
		}
	}
	// Whether synthesized here or answered degraded by the upstream,
	// remember the stamp so this pod's own response restores it.
	if resp != nil {
		if origin := resp.Headers.Get(HeaderDegraded); origin != "" {
			now := m.sched.Now()
			m.degraded.Put(c.req.Headers.Get(trace.HeaderRequestID), origin, now+degradedTTL, now)
		}
	}
	return resp, err
}
