package mesh

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"meshlayer/internal/admission"
	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
	"meshlayer/internal/trace"
	"meshlayer/internal/transport"
)

// AppHandler is the application's request handler, invoked by its
// sidecar for inbound requests. The application responds exactly once,
// possibly after spawning child requests through Sidecar.Call.
type AppHandler func(req *httpsim.Request, respond func(*httpsim.Response))

// ConnClass selects the transport treatment of an outbound request:
// which pooled connection group it uses and with what congestion
// control and packet mark. The cross-layer controller installs a
// classifier mapping priorities to classes; the default is one
// best-effort class for everything.
type ConnClass struct {
	Name    string
	Options transport.Options
}

// DefaultConnClass is the single best-effort class.
var DefaultConnClass = ConnClass{Name: "default", Options: transport.Options{CC: "reno"}}

// InboundFilter observes and may mutate an inbound request before the
// application sees it. ctx carries the server-side connection, whose
// mark/congestion control govern the response bytes.
type InboundFilter func(ctx httpsim.Ctx, req *httpsim.Request)

// OutboundFilter observes and may mutate an outbound request before
// routing.
type OutboundFilter func(req *httpsim.Request)

// Errors surfaced by Sidecar.Call.
var (
	ErrNoService   = errors.New("mesh: unknown destination service")
	ErrNoEndpoints = errors.New("mesh: service has no endpoints")
	ErrTimeout     = errors.New("mesh: request timed out")
)

type poolKey struct {
	addr  simnet.Addr
	class string
}

// Sidecar is the per-pod proxy handling all of the pod's inbound and
// outbound communication. A sidecar holds what it routes: its routing
// state is made at the first write (entry), so one that only serves,
// as most do, holds none.
type Sidecar struct {
	mesh    *Mesh
	pod     *cluster.Pod
	service string
	server  *httpsim.Server
	app     AppHandler

	// Pooled connections by (endpoint, class), LB and breaker state by
	// endpoint (lb.go), WAN path state by region (locality.go), and
	// state by upstream service; each map is nil until its first entry.
	pools       map[poolKey]*httpsim.Client
	endpoints   map[simnet.Addr]*endpointState
	regionPaths map[string]*endpointState
	upstreams   map[string]*upstreamState

	inboundFilters  []InboundFilter
	outboundFilters []OutboundFilter
	connClassifier  func(*httpsim.Request) ConnClass
	connHook        func(*transport.Conn, ConnClass)
	bucket          *tokenBucket
	identity        *Cert

	// admit is the overload protection (admission.go), nil until used.
	admit *admissionState

	// serverFault is the chaos engine's server-side fault state (nil =
	// healthy).
	serverFault *serverFaultState

	// ctrl is this sidecar's local snapshot of distributed routing
	// state (nil in instant-propagation mode). Only the control-plane
	// push path may mutate it — enforced by meshvet's ctlwrite.
	ctrl *sidecarAgent
}

// upstreamState is a sidecar's own state for one destination service:
// the round-robin cursor, whether the service's health-check and
// outlier loops run, and its retry budget (health.go).
type upstreamState struct {
	rr uint64
	// tokens is the retry budget, valid once budgeted is set.
	tokens        float64
	budgeted      bool
	hcActive      bool
	outlierActive bool
}

// upstream returns the state for service, made at the first write.
func (sc *Sidecar) upstream(service string) *upstreamState { return entry(&sc.upstreams, service) }

// entry returns (*m)[k], making the map and the entry if either is
// missing. Routing state is written through it and read by indexing
// the map, where a missing entry is nil.
func entry[K comparable, V any](m *map[K]*V, k K) *V {
	v := (*m)[k]
	if v == nil {
		if *m == nil {
			*m = make(map[K]*V)
		}
		v = new(V)
		(*m)[k] = v
	}
	return v
}

// InjectSidecar pairs a sidecar with the pod. The pod's service
// identity is its "app" label (falling back to the pod name).
func (m *Mesh) InjectSidecar(pod *cluster.Pod) *Sidecar {
	if _, dup := m.sidecars[pod.Name()]; dup {
		panic(fmt.Sprintf("mesh: pod %q already has a sidecar", pod.Name()))
	}
	service := pod.Label("app")
	if service == "" {
		service = pod.Name()
	}
	sc := &Sidecar{mesh: m, pod: pod, service: service}
	srv, err := httpsim.NewServer(pod.Host(), InboundPort, sc.handleInbound)
	if err != nil {
		panic(err)
	}
	sc.server = srv
	m.sidecars[pod.Name()] = sc
	if d := m.cp.distributorFor(pod); d != nil {
		d.register(sc)
	}
	return sc
}

// Pod returns the pod this sidecar serves.
func (sc *Sidecar) Pod() *cluster.Pod { return sc.pod }

// ServiceName returns the sidecar's service identity.
func (sc *Sidecar) ServiceName() string { return sc.service }

// RegisterApp installs the application handler for inbound requests.
func (sc *Sidecar) RegisterApp(h AppHandler) { sc.app = h }

// AddInboundFilter appends an inbound filter (run in order).
func (sc *Sidecar) AddInboundFilter(f InboundFilter) {
	sc.inboundFilters = append(sc.inboundFilters, f)
}

// AddOutboundFilter appends an outbound filter (run in order).
func (sc *Sidecar) AddOutboundFilter(f OutboundFilter) {
	sc.outboundFilters = append(sc.outboundFilters, f)
}

// SetConnClassifier installs the per-request connection-class chooser.
func (sc *Sidecar) SetConnClassifier(f func(*httpsim.Request) ConnClass) {
	sc.connClassifier = f
}

// SetConnHook installs a callback invoked whenever the sidecar opens a
// new upstream connection — the cross-layer controller uses it to
// announce flows (and their priorities) to the SDN controller out of
// band (§4.2 optimization d).
func (sc *Sidecar) SetConnHook(f func(*transport.Conn, ConnClass)) { sc.connHook = f }

// --- inbound path ---

// inbound is one request a sidecar serves, from its arrival at the
// proxy to its response leaving it. Records live on the mesh's free
// list (Mesh.inbounds); serveFn and replyFn are serve and reply bound
// once, when the record is made. A record goes back to the list in
// reply, or in the branch of serve that answers without the app. The
// app's respond closure holds the record with the gen it was handed
// out at, and its first call moves gen on: a second respond, even one
// made after the record went on to serve another request, sees a newer
// gen and crosses the proxy on its own, to httpsim's "respond called
// twice" panic through respond, httpsim's own closure for the request.
//
//meshvet:pooled
type inbound struct {
	sc      *Sidecar
	ctx     httpsim.Ctx
	req     *httpsim.Request
	respond func(*httpsim.Response)
	span    trace.SpanRef
	start   time.Duration
	// resp is the app's response, crossing the proxy out to reply.
	resp             *httpsim.Response
	gen              uint64
	serveFn, replyFn func()
}

// newInbound takes a record off the mesh's free list, or makes one.
func (m *Mesh) newInbound() *inbound {
	if n := len(m.inbounds); n > 0 {
		in := m.inbounds[n-1]
		m.inbounds = m.inbounds[:n-1]
		return in
	}
	m.inboundsMade++
	in := new(inbound)
	in.serveFn, in.replyFn = in.serve, in.reply
	return in
}

// FreeInbounds returns how many inbound records wait on the mesh's free
// list and how many the mesh has made, equal once the scheduler drains
// and every request is answered, as FreeCalls does for call records.
func (m *Mesh) FreeInbounds() (free, made int) { return len(m.inbounds), m.inboundsMade }

// release resets the record, keeping its gen and bound methods, and
// returns it to the free list.
func (in *inbound) release() {
	m := in.sc.mesh
	*in = inbound{gen: in.gen, serveFn: in.serveFn, replyFn: in.replyFn}
	m.inbounds = append(m.inbounds, in) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}

func (sc *Sidecar) handleInbound(ctx httpsim.Ctx, req *httpsim.Request, respond func(*httpsim.Response)) {
	m := sc.mesh
	in := m.newInbound()
	in.sc, in.ctx, in.req, in.respond = sc, ctx, req, respond
	m.sched.After(m.proxyDelay(), in.serveFn)
}

// serve runs an inbound request once it has crossed the proxy.
func (in *inbound) serve() {
	sc, req, respond := in.sc, in.req, in.respond
	m := sc.mesh
	// Control-plane pushes terminate at the proxy: apply to the
	// local snapshot and ACK/NACK.
	if id := req.Headers.Get(HeaderCtrl); id != "" {
		in.release()
		sc.handleCtrlPush(id, respond)
		return
	}
	// Health probes are answered by the proxy itself: they prove
	// the pod is reachable and its sidecar alive, nothing more.
	if req.Headers.Get(HeaderHealth) != "" {
		in.release()
		m.metrics.Counter(MetricHealthProbeAnswered,
			metrics.Labels{"service": sc.service}).Inc()
		respond(httpsim.NewResponse(httpsim.StatusOK))
		return
	}
	// Chaos-injected gray failure: the "application" intermittently
	// errors (after an optional stall) while probes above keep
	// passing — exactly the failure shape outlier detection exists
	// to catch.
	if sf := sc.serverFault; sf != nil && sf.rng.Float64() < sf.cfg.Prob {
		in.release()
		m.metrics.Counter(MetricServerFaultInjected,
			metrics.Labels{"service": sc.service}).Inc()
		resp := httpsim.NewResponse(sf.status())
		if sf.cfg.Delay > 0 {
			m.sched.After(sf.cfg.Delay, func() { respond(resp) })
		} else {
			respond(resp)
		}
		return
	}
	if !sc.applyInboundRateLimit(respond) {
		in.release()
		return
	}

	// Server span: adopt the caller's span as parent, then make
	// this span the parent of anything the app spawns.
	in.start = m.sched.Now()
	if tid := req.Headers.Get(trace.HeaderRequestID); tid != "" {
		in.span = m.tracer.Open(trace.Span{
			TraceID:  tid,
			ParentID: parseSpanID(req.Headers.Get(trace.HeaderSpanID)),
			Service:  sc.service,
			Name:     m.tracer.Name(req.Method, req.Path),
			Start:    in.start,
			Priority: req.Headers.Get(HeaderPriority),
		})
		req.Headers.Set(trace.HeaderSpanID, m.tracer.IDText(uint64(in.span)))
	}

	for _, f := range sc.inboundFilters {
		f(in.ctx, req)
	}

	// Deadline propagation: remember this request's remaining
	// budget so outbound child calls can decrement or cancel.
	expiry, hasExpiry := sc.recordInboundDeadline(req)

	app := sc.app
	if app == nil {
		in.release()
		m.seriesOf(sc.service).inboundOK().Inc()
		respond(httpsim.NewResponse(httpsim.StatusNotFound))
		return
	}

	// The app answers through one closure that sends its response back
	// out through the proxy.
	gen := in.gen
	respondFinal := func(resp *httpsim.Response) {
		if !in.answer(gen, resp) { //meshvet:allow poolescape the closure holds the record with its generation, and answer checks that before using it
			m.sched.After(m.proxyDelay(), func() { respond(resp) })
		}
	}

	ctl := sc.admissionFor(sc.admissionPolicyFor(sc.service))
	if ctl == nil {
		m.seriesOf(sc.service).inboundOK().Inc()
		app(req, respondFinal)
		return
	}

	// Admission enabled: route the dispatch through the bounded
	// priority queue + concurrency limiter. Exactly one of Run/Shed
	// fires, possibly later when a slot frees.
	cls := classOf(req)
	ctl.Offer(admission.Item{
		Class:     cls,
		Enqueued:  m.sched.Now(),
		Expiry:    expiry,
		HasExpiry: hasExpiry,
		Run: func() {
			m.seriesOf(sc.service).inboundOK().Inc()
			sc.observeAdmission(ctl)
			dispatched := m.sched.Now()
			app(req, func(resp *httpsim.Response) {
				// Queue wait is excluded from the limiter's latency
				// sample: the limiter tracks service time, not its
				// own queueing.
				ctl.Done(m.sched.Now()-dispatched, resp.Status < 500)
				sc.observeAdmission(ctl)
				respondFinal(resp)
			})
		},
		Shed: func(why admission.Reason) {
			sc.shedInbound(cls, why, respondFinal)
		},
	})
}

// answer stores the app's response and sends it out through the proxy
// to reply. It reports false, and touches nothing, when the record's
// gen has moved past gen: the request was answered already.
func (in *inbound) answer(gen uint64, resp *httpsim.Response) bool {
	if in.gen != gen {
		return false
	}
	m := in.sc.mesh
	in.gen++
	in.resp = resp
	m.sched.After(m.proxyDelay(), in.replyFn)
	return true
}

// reply answers the caller once the response has crossed the proxy,
// returning the record first.
func (in *inbound) reply() {
	sc, req, resp, respond, span, start := in.sc, in.req, in.resp, in.respond, in.span, in.start
	m := sc.mesh
	in.release()
	// Degraded provenance: the application composed this response
	// from child calls and dropped their headers; restore the
	// degraded stamp recorded from any child so it keeps travelling
	// toward the edge.
	if origin, ok := m.degraded.Take(req.Headers.Get(trace.HeaderRequestID)); ok {
		resp.Headers.Set(HeaderDegraded, origin)
	}
	if span != 0 {
		m.tracer.Close(span, m.sched.Now(), int32(resp.Status), 0)
	}
	m.seriesOf(sc.service).duration(dirInbound).RecordDuration(m.sched.Now() - start)
	respond(resp)
}

// --- outbound path ---

// call tracks one logical outbound request across attempts. Records
// live on the mesh's free list (Mesh.calls). holds counts what may
// still run code on the record: its live attempts and its pending
// hedge, retry-backoff, fallback and fault-delay timers, whose
// callbacks are methods bound once, when the record first arms a
// timer (most never do, and a free record stays smaller). A call
// returns its record when it is done and its last hold ends, whichever
// comes second; the proxy traversal that routes it needs no hold, as
// no call finishes before it is routed.
//
//meshvet:pooled
type call struct {
	sc       *Sidecar
	service  string
	req      *httpsim.Request
	cb       func(*httpsim.Response, error)
	retry    *RetryPolicy // shared and never written (retryPolicyFor)
	breaker  CircuitBreakerPolicy
	attempts int
	start    time.Duration
	// fbTimer is the armed fallback deadline (degrade.go), cancelled
	// when the call settles first.
	fbTimer simnet.Timer
	span    trace.SpanRef
	// holds counts the live attempts and pending timers (see above).
	holds  int32
	done   bool
	hedged bool
	// retryPending is set while a retry is scheduled but has not yet
	// launched. It stops concurrent attempt failures (a hedge pair, or
	// an original racing its replacement) from each spending a budget
	// token and each scheduling a retry for the same logical call.
	retryPending bool
	// route, bound when the record is made.
	routeFn func()
	// onHedge, onRetry, onFallback and onDelay, bound by bindTimers.
	hedgeFn, retryFn, fallbackFn, delayFn func()
}

// newCall takes a record off the mesh's free list, or makes one.
func (m *Mesh) newCall() *call {
	if n := len(m.calls); n > 0 {
		c := m.calls[n-1]
		m.calls = m.calls[:n-1]
		return c
	}
	m.callsMade++
	c := new(call)
	c.routeFn = c.route
	return c
}

// bindTimers binds the call's timer callbacks, once per record, before
// it arms its first timer.
func (c *call) bindTimers() {
	if c.hedgeFn == nil {
		c.hedgeFn, c.retryFn, c.fallbackFn, c.delayFn = c.onHedge, c.onRetry, c.onFallback, c.onDelay
	}
}

// FreeCalls returns how many call records wait on the mesh's free list
// and how many the mesh has made. Once the scheduler drains the two are
// equal: tests read them to prove that each call returns its record,
// once.
func (m *Mesh) FreeCalls() (free, made int) { return len(m.calls), m.callsMade }

// drop ends one of the call's holds. It reports whether the call is
// still live; a done call's last hold returns the record.
func (c *call) drop() (live bool) {
	c.holds--
	if !c.done {
		return true
	}
	if c.holds == 0 {
		c.release()
	}
	return false
}

// release resets a done call with no holds and returns it to the free
// list.
func (c *call) release() {
	m := c.sc.mesh
	*c = call{routeFn: c.routeFn, hedgeFn: c.hedgeFn, retryFn: c.retryFn, fallbackFn: c.fallbackFn, delayFn: c.delayFn}
	m.calls = append(m.calls, c) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}

// Call routes req to the service named by its "host" header through
// the mesh: route rules select a subset, the LB picks an endpoint,
// and the request goes out on a pooled connection of its class, with
// retries, hedging, and circuit breaking per control-plane policy.
// cb fires exactly once.
func (sc *Sidecar) Call(req *httpsim.Request, cb func(*httpsim.Response, error)) {
	m := sc.mesh
	service := req.Headers.Get(HeaderHost)
	if service == "" {
		cb(nil, ErrNoService)
		return
	}
	sc.stampIdentity(req)

	var span trace.SpanRef
	if tid := req.Headers.Get(trace.HeaderRequestID); tid != "" {
		span = m.tracer.Open(trace.Span{
			TraceID:  tid,
			ParentID: parseSpanID(req.Headers.Get(trace.HeaderSpanID)),
			Service:  sc.service,
			Name:     m.tracer.Name("call", service, req.Path),
			Start:    m.sched.Now(),
			Client:   true,
		})
		req.Headers.Set(trace.HeaderSpanID, m.tracer.IDText(uint64(span)))
	}

	c := m.newCall()
	c.sc, c.service, c.req, c.cb, c.span = sc, service, req, cb, span
	c.retry, c.breaker, c.start = sc.retryPolicyFor(service), sc.breakerFor(service), m.sched.Now()
	sc.ensureDefenses(service)
	sc.depositRetryTokens(service, *c.retry)
	m.sched.After(m.proxyDelay(), c.routeFn)
}

// route runs a call once it has crossed the proxy: filters, the
// end-to-end deadline, mirroring, fallback and fault policy, then the
// first attempt.
func (c *call) route() {
	sc, req, service := c.sc, c.req, c.service
	m := sc.mesh
	for _, f := range sc.outboundFilters {
		f(req)
	}
	// End-to-end deadline: cancel the call when the calling
	// request's budget is already spent, otherwise forward the
	// decremented budget.
	if !sc.applyOutboundDeadline(c) {
		return
	}
	sc.maybeMirror(service, req)

	// Graceful degradation: with a fallback configured, bound how
	// long this call may chase a real response. Retry ladders
	// against a dead upstream outlast the callers' own timeouts;
	// serving degraded at the deadline keeps the whole tree alive.
	if sc.fallbackFor(service).Enabled {
		c.fbTimer.Cancel() // no-op on a fresh call; meshvet: cancel before re-arm
		c.bindTimers()
		c.holds++
		c.fbTimer = m.sched.After(fallbackAfter, c.fallbackFn)
	}

	// Fault injection (client-side, once per logical call).
	if f := sc.faultPolicyFor(service); !f.IsZero() {
		if f.AbortProb > 0 && m.rng.Float64() < f.AbortProb {
			c.finish(httpsim.NewResponse(f.AbortStatus), nil)
			return
		}
		if f.DelayProb > 0 && m.rng.Float64() < f.DelayProb {
			c.bindTimers()
			c.holds++
			m.sched.After(f.Delay, c.delayFn)
			return
		}
	}
	c.begin()
}

// onFallback serves the fallback when the call is still live at its
// fallback deadline.
func (c *call) onFallback() {
	if c.drop() {
		c.finish(nil, ErrTimeout)
	}
}

// onDelay begins the call once its injected fault delay has passed,
// unless its fallback finished it meanwhile: an attempt launched then
// would make the upstream serve a request whose answer is dropped. The
// delay's hold keeps the call until begin returns.
func (c *call) onDelay() {
	if !c.done {
		c.begin()
	}
	c.drop()
}

// begin launches the call's first attempt and arms its hedge. The
// hedge timer's hold is taken before launch, which may finish the call
// and, holding nothing else, return it.
func (c *call) begin() {
	m := c.sc.mesh
	h := c.sc.hedgePolicyFor(c.service)
	if h.Delay > 0 {
		c.bindTimers()
		c.holds++
	}
	c.launch()
	if h.Delay > 0 {
		m.sched.After(h.Delay, c.hedgeFn)
	}
}

// onHedge launches a second attempt when the call is still live at its
// hedge delay and has not hedged yet. Finishing the call does not
// cancel the hedge timer, so the call's record waits for it.
func (c *call) onHedge() {
	if c.drop() && !c.hedged {
		c.hedged = true
		c.launch()
	}
}

// endpointsFor resolves the service through this sidecar's discovery
// view (live cluster state, or the pushed snapshot with distribution
// enabled) and applies routing rules.
func (sc *Sidecar) endpointsFor(service string, req *httpsim.Request) ([]*cluster.Pod, error) {
	all, ok := sc.discoverEndpoints(service)
	if !ok {
		return nil, ErrNoService
	}
	subset := SubsetRef{}
	if rule := sc.routeRuleFor(service); rule != nil {
		subset = rule.DefaultSubset
		for _, hr := range rule.HeaderRoutes {
			if req.Headers.Get(hr.Header) == hr.Value {
				subset = hr.Subset
				break
			}
		}
	}
	eps := all
	if !subset.IsZero() {
		eps = nil
		for _, p := range all {
			if p.Label(subset.Key) == subset.Value {
				eps = append(eps, p)
			}
		}
	}
	if len(eps) == 0 {
		return nil, ErrNoEndpoints
	}
	return eps, nil
}

func (c *call) launch() {
	sc := c.sc
	m := sc.mesh
	c.attempts++

	eps, err := sc.endpointsFor(c.service, c.req)
	if err == ErrNoEndpoints {
		// The failover ladder may still reach gateway-summarized remote
		// regions; pickTarget reports ErrNoEndpoints itself otherwise.
		eps, err = nil, nil
	}
	if err != nil {
		c.finish(nil, err)
		return
	}
	// The ladder picks per attempt: a retry after a failed cross-region
	// attempt may land on a different tier (or region) than the first.
	ep, via := sc.pickTarget(c.service, c.req, eps)
	if via != "" {
		// Cross-region: the attempt dials the local egress gateway, which
		// forwards to the target region's ingress gateway over the WAN.
		gwEps, gwErr := sc.endpointsFor(EWGatewayService(sc.pod.Region()), c.req)
		if gwErr != nil {
			c.finish(nil, gwErr)
			return
		}
		ep = sc.pickEndpoint(EWGatewayService(sc.pod.Region()), gwEps)
	}
	if ep == nil {
		c.finish(nil, ErrNoEndpoints)
		return
	}
	// A cross-region attempt accounts against the WAN path to its target
	// region, not against the local egress pod every region shares: a
	// partitioned region's failures must trip that region's path breaker
	// only, or they would black-hole the healthy regions behind the same
	// gateway. The path state is what lets the data plane learn WAN-side
	// sickness the frozen control-plane summaries cannot show.
	var st *endpointState
	if via != "" {
		st = sc.regionPath(via)
	} else {
		st = sc.epState(ep.Addr())
	}
	st.inflight++
	// If the breaker is half-open this attempt is the single trial
	// request whose outcome decides close vs re-open.
	trial := false
	if st.phase == breakerHalfOpen && !st.trial {
		st.trial = true
		trial = true
	}

	class := DefaultConnClass
	if sc.connClassifier != nil {
		class = sc.connClassifier(c.req)
	}
	client := sc.clientFor(ep, class)

	at := m.newAttempt()
	c.holds++
	at.c, at.st, at.trial, at.start = c, st, trial, m.sched.Now() //meshvet:allow poolescape an attempt holds its call, counted in holds until settle drops it
	at.key, at.client = poolKey{addr: ep.Addr(), class: class.Name}, client
	out := c.req.Clone()
	if via != "" {
		out.Headers.Set(HeaderEWService, c.service)
		out.Headers.Set(HeaderEWRegion, via)
	}
	client.DoWithin(out, c.retry.PerTryTimeout, at.done)
}

// attempt is one try of a call: the endpoint (or WAN path) state it
// charged, whether it is a half-open breaker's trial, and the pooled
// connection it went out on. Records live on the mesh's free list
// (Mesh.attempts); done is settle bound once, when the record is made,
// and settle returns the record to the list, which is safe because
// DoWithin fires it exactly once.
//
//meshvet:pooled
type attempt struct {
	c      *call
	st     *endpointState
	trial  bool
	start  time.Duration
	key    poolKey
	client *httpsim.Client
	done   func(*httpsim.Response, error)
}

// newAttempt takes a record off the mesh's free list, or makes one.
func (m *Mesh) newAttempt() *attempt {
	if n := len(m.attempts); n > 0 {
		at := m.attempts[n-1]
		m.attempts = m.attempts[:n-1]
		return at
	}
	m.attemptsMade++
	at := new(attempt)
	at.done = at.settle
	return at
}

// FreeAttempts returns how many attempt records wait on the mesh's free
// list and how many the mesh has made, equal once the scheduler drains,
// as FreeCalls does for call records.
func (m *Mesh) FreeAttempts() (free, made int) { return len(m.attempts), m.attemptsMade }

// settle folds the attempt's outcome into its endpoint state and its
// call: a retry, or the call's end.
func (at *attempt) settle(resp *httpsim.Response, err error) {
	c, st, trial, start := at.c, at.st, at.trial, at.start
	sc := c.sc
	m := sc.mesh
	if err == httpsim.ErrTimeout {
		// A per-try timeout condemns the pooled connection for
		// future attempts — evict it so the next attempt re-dials
		// instead of waiting out retransmission backoff to a
		// possibly-partitioned peer — but does NOT abort it:
		// requests pipelined behind this one may be merely queued
		// behind congestion, and killing the connection would turn
		// one slow request into a batch of failures. Against a
		// truly dead peer each pipelined request times out and
		// retries on its own per-try timer.
		sc.evictPool(at.key, at.client)
		err = ErrTimeout
	}
	*at = attempt{done: at.done}
	m.attempts = append(m.attempts, at) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer

	st.inflight--
	lat := m.sched.Now() - start
	failed := err != nil || resp.Status >= 500
	st.observe(lat, failed, trial, c.breaker, m.sched.Now())
	if !c.drop() {
		return
	}
	if failed && c.shouldRetry(resp, err) {
		if c.retryPending {
			return // a concurrent attempt already charged and scheduled this retry
		}
		if !sc.spendRetryToken(c.service, *c.retry) {
			m.metrics.Counter(MetricRetryBudgetExhausted,
				metrics.Labels{"service": c.service}).Inc()
			c.finish(resp, err)
			return
		}
		c.retryPending = true
		c.scheduleRetry()
		return
	}
	c.finish(resp, err)
}

func (c *call) shouldRetry(resp *httpsim.Response, err error) bool {
	if c.attempts > c.retry.MaxRetries {
		return false
	}
	if err != nil {
		return true
	}
	return c.retry.RetryOn5xx && resp.Status >= 500
}

// scheduleRetry launches the next attempt, after the policy's
// full-jitter exponential backoff when one is configured (retries are
// immediate otherwise, the legacy behaviour).
func (c *call) scheduleRetry() {
	m := c.sc.mesh
	m.metrics.Counter(MetricRetriesTotal,
		metrics.Labels{"service": c.service}).Inc()
	d := c.retry.backoffFor(c.attempts)
	if d <= 0 {
		c.retryPending = false
		c.launch()
		return
	}
	wait := time.Duration(m.rng.Int63n(int64(d))) + 1 // U(0, d]
	c.bindTimers()
	c.holds++
	m.sched.After(wait, c.retryFn)
}

// onRetry launches the retry a backoff delayed, unless the call
// finished meanwhile.
func (c *call) onRetry() {
	if c.drop() {
		c.retryPending = false
		c.launch()
	}
}

func (c *call) finish(resp *httpsim.Response, err error) {
	if c.done {
		return
	}
	c.done = true
	if !c.fbTimer.Stopped() {
		c.fbTimer.Cancel()
		c.holds-- // the fallback timer's hold ends with it
	}
	m := c.sc.mesh
	resp, err = c.maybeFallback(resp, err)
	status := 0
	if err == nil {
		status = resp.Status
	}
	ss := m.seriesOf(c.service)
	ss.outboundRequests(status, err != nil).Inc()
	ss.duration(dirOutbound).RecordDuration(m.sched.Now() - c.start)
	if c.span != 0 {
		var retries int16
		if c.attempts > 1 {
			retries = int16(c.attempts - 1)
		}
		m.tracer.Close(c.span, m.sched.Now(), int32(status), retries)
	}
	cb := c.cb
	if c.holds == 0 {
		c.release()
	}
	cb(resp, err)
}

// statusClasses are the outbound counter's code labels for status
// classes 0-9, so labelling a call formats nothing.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// statusClass returns the "<n>xx" label of an HTTP status.
func statusClass(status int) string {
	if c := status / 100; c >= 0 && c < len(statusClasses) {
		return statusClasses[c]
	}
	return fmt.Sprintf("%dxx", status/100)
}

// clientFor returns (creating/replacing as needed) the pooled client
// for an endpoint and connection class.
func (sc *Sidecar) clientFor(ep *cluster.Pod, class ConnClass) *httpsim.Client {
	return sc.clientForAddr(ep.Addr(), class)
}

// PoolSize returns the number of live pooled connections (tests).
func (sc *Sidecar) PoolSize() int { return len(sc.pools) }

// ForEachPool visits every pooled upstream connection with its class
// name and destination, in (addr, class) order — introspection for
// tests and the meshbench reporting CLI.
func (sc *Sidecar) ForEachPool(fn func(class string, dst simnet.Addr, conn *transport.Conn)) {
	keys := make([]poolKey, 0, len(sc.pools))
	for key := range sc.pools {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return keys[i].class < keys[j].class
	})
	for _, key := range keys {
		fn(key.class, key.addr, sc.pools[key].Conn())
	}
}

// parseSpanID reads the parent span id an upstream sidecar wrote with
// trace.Collector.IDText. A missing or malformed header — anything but
// bare hex digits that fit 64 bits — is 0, no parent: the span starts a
// trace of its own rather than hanging off whatever prefix happened to
// parse.
func parseSpanID(s string) uint64 {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}
