package mesh

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"meshlayer/internal/admission"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/trace"
)

// AdmissionPolicy configures a service's overload protection: the
// bounded two-class priority queue, the adaptive concurrency limiter,
// and the end-to-end deadline budget stamped at the ingress. Zero
// numeric fields select the admission package defaults. The policy is
// pushed per destination service, like every other traffic policy.
type AdmissionPolicy struct {
	// Enabled turns queueing + concurrency limiting on for the
	// service's sidecars. Deadline propagation works regardless: any
	// request carrying a budget header is tracked and cancelled when
	// exhausted, so budgets can be deployed before (or without)
	// admission control proper.
	Enabled bool

	// QueueLimit bounds the total queued requests per sidecar.
	QueueLimit int
	// QueueTarget is the low-importance (LI) sojourn-time target for
	// CoDel-style delay shedding.
	QueueTarget time.Duration
	// QueueLSTarget is the latency-sensitive (LS) class's last-resort
	// sojourn target (default 20x QueueTarget).
	QueueLSTarget time.Duration
	// QueueInterval is how long a class's queue delay must stay above
	// target before shedding starts.
	QueueInterval time.Duration

	// InitialConcurrency seeds the adaptive limiter; Min/MaxConcurrency
	// clamp it.
	InitialConcurrency int
	MinConcurrency     int
	MaxConcurrency     int

	// Budget is the end-to-end deadline the gateway stamps on external
	// requests bound for this service. Zero disables stamping.
	Budget time.Duration
}

// SetAdmissionPolicy installs (replacing) the admission policy for a
// service. Like all policy pushes it honours the distributors' hold.
func (cp *ControlPlane) SetAdmissionPolicy(service string, p AdmissionPolicy) {
	cp.edit(service, func(pol *servicePolicy) { pol.Admission = &p })
}

// classOf maps the request's provenance-carried priority to an
// admission class: explicitly low-priority traffic is load-sheddable
// (LI); everything else — including unclassified traffic — is treated
// as latency-sensitive (LS), matching the fail-open posture of the
// ingress classifier.
func classOf(req *httpsim.Request) admission.Class {
	if req.Headers.Get(HeaderPriority) == PriorityLow {
		return admission.LI
	}
	return admission.LS
}

// admissionState is a sidecar's overload protection. It is made at the
// first write — a pushed policy that enables admission, or an inbound
// request that carries a deadline budget — and most sidecars never
// make one.
type admissionState struct {
	// ctl is built lazily from the pushed policy pol, and dropped while
	// the policy leaves admission disabled.
	ctl *admission.Controller
	pol AdmissionPolicy
	// deadlines holds the expiry of every budget-carrying request this
	// sidecar served, keyed by trace ID, whether or not admission is
	// enabled; a record is kept deadlineGrace past its expiry.
	deadlines trace.Provenance[time.Duration]
}

// deadlineGrace keeps an expired deadline record around briefly, so
// late child calls of an already-expired request still find "expired"
// (and are cancelled) rather than "unknown" (and sent).
const deadlineGrace = time.Second

// admitState returns the sidecar's admission state, made at first use.
func (sc *Sidecar) admitState() *admissionState {
	if sc.admit == nil {
		sc.admit = &admissionState{}
	}
	return sc.admit
}

// admissionFor returns the controller matching the pushed policy,
// rebuilding it when the policy changed, or nil when admission is
// disabled. Rebuilding discards learned limiter state — acceptable,
// since policy pushes are rare operator actions.
func (sc *Sidecar) admissionFor(p AdmissionPolicy) *admission.Controller {
	if !p.Enabled {
		if a := sc.admit; a != nil {
			a.ctl = nil
		}
		return nil
	}
	a := sc.admitState()
	if a.ctl == nil || a.pol != p {
		a.pol = p
		a.ctl = admission.New(admission.Config{
			Queue: admission.QueueConfig{
				Limit:    p.QueueLimit,
				Target:   p.QueueTarget,
				LSTarget: p.QueueLSTarget,
				Interval: p.QueueInterval,
			},
			Limiter: admission.LimiterConfig{
				Initial: p.InitialConcurrency,
				Min:     p.MinConcurrency,
				Max:     p.MaxConcurrency,
			},
			Now: sc.mesh.sched.Now,
		})
	}
	return a.ctl
}

// recordInboundDeadline reads the remaining-budget header stamped by
// the previous hop and records the absolute expiry under the request's
// trace ID, so this sidecar's outbound path can decrement (or cancel)
// the child calls of this request. It returns the effective expiry
// and whether the request has a deadline at all: a spent budget (≤ 0)
// expires now, at time 0 as at any other, while a budget past the end
// of simulated time is none. The earliest observation for a trace
// wins: retries and hedges must not refresh the budget.
func (sc *Sidecar) recordInboundDeadline(req *httpsim.Request) (time.Duration, bool) {
	b := req.Headers.Get(HeaderBudget)
	if b == "" {
		return 0, false
	}
	us, err := strconv.ParseInt(b, 10, 64)
	now := sc.mesh.sched.Now()
	if err != nil || us > int64((math.MaxInt64-now-deadlineGrace)/time.Microsecond) {
		return 0, false
	}
	expiry := now + time.Duration(us)*time.Microsecond
	if us <= 0 {
		expiry = now
	}
	if tid := req.Headers.Get(trace.HeaderRequestID); tid != "" {
		d := &sc.admitState().deadlines
		if e, ok := d.Get(tid); ok && e <= expiry {
			expiry = e
		}
		d.Put(tid, expiry, expiry+deadlineGrace, now)
	}
	return expiry, true
}

// applyOutboundDeadline enforces the end-to-end budget on one outbound
// call: when the calling request's budget is exhausted the call is
// cancelled locally with 504 — the wasted downstream work the paper's
// cross-layer view is meant to avoid — and otherwise the budget header
// is rewritten to the remaining amount so the next hop sees a budget
// net of this hop's queueing and service time. Reports whether the
// call may proceed.
func (sc *Sidecar) applyOutboundDeadline(c *call) bool {
	tid := c.req.Headers.Get(trace.HeaderRequestID)
	if tid == "" || sc.admit == nil {
		return true // untraced, or no request this sidecar served carried a budget
	}
	expiry, ok := sc.admit.deadlines.Get(tid)
	if !ok {
		return true
	}
	rem := expiry - sc.mesh.sched.Now()
	if rem <= 0 {
		sc.mesh.metrics.Counter(MetricAdmissionCancelledTotal,
			metrics.Labels{"service": sc.service, "upstream": c.service}).Inc()
		c.finish(httpsim.NewResponse(httpsim.StatusGatewayTimeout), nil)
		return false
	}
	c.req.Headers.Set(HeaderBudget, strconv.FormatInt(rem.Microseconds(), 10))
	return true
}

// shedInbound fast-fails a request the admission controller refused:
// 503 for load sheds, 504 for exhausted deadlines.
func (sc *Sidecar) shedInbound(cls admission.Class, why admission.Reason, respond func(*httpsim.Response)) {
	status := httpsim.StatusServiceUnavailable
	if why == admission.ShedDeadline {
		status = httpsim.StatusGatewayTimeout
	}
	m := sc.mesh
	m.metrics.Counter(MetricAdmissionShedTotal,
		metrics.Labels{"service": sc.service, "class": cls.String(), "reason": why.String()}).Inc()
	m.metrics.Counter(MetricRequestsTotal,
		metrics.Labels{"service": sc.service, "direction": "inbound", "code": fmt.Sprint(status)}).Inc()
	respond(httpsim.NewResponse(status))
}

// observeAdmission exports the controller's queue depths and current
// concurrency limit as gauges.
func (sc *Sidecar) observeAdmission(ctl *admission.Controller) {
	m := sc.mesh
	for _, cls := range []admission.Class{admission.LS, admission.LI} {
		m.metrics.Gauge(MetricAdmissionQueueDepth,
			metrics.Labels{"service": sc.service, "class": cls.String()}).
			Set(float64(ctl.Queue().Depth(cls)))
	}
	m.metrics.Gauge(MetricAdmissionLimit,
		metrics.Labels{"service": sc.service}).Set(float64(ctl.Limiter().Limit()))
}
