package mesh

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/hdr"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/trace"
)

// Classifier assigns the performance objective of an external request
// at the ingress — the paper's design component (1). It typically sets
// HeaderPriority from the request's path or source.
type Classifier func(req *httpsim.Request)

// Gateway is the mesh's ingress: external requests enter here, get a
// trace identity and a classification, and are routed into the mesh.
type Gateway struct {
	mesh       *Mesh
	sc         *Sidecar
	classifier Classifier
	served     uint64
	// durations is MetricGatewayRequestDuration by priority ("" for an
	// unclassified request), each resolved at its first observation.
	durations map[string]*hdr.Histogram
	// admitted is the free list of admitted-request records.
	admitted []*admitted
}

// admitted is one admitted request until its answer: the root span to
// close and the caller's callback. Records live on the gateway's free
// list; done is finish bound once, when the record is made, and finish
// returns the record, which is safe because Call fires it exactly once.
//
//meshvet:pooled
type admitted struct {
	g     *Gateway
	req   *httpsim.Request
	root  trace.SpanRef
	start time.Duration
	cb    func(*httpsim.Response, error)
	done  func(*httpsim.Response, error)
}

// NewGateway installs an ingress gateway on the pod (which receives a
// sidecar if it does not have one yet).
func (m *Mesh) NewGateway(pod *cluster.Pod) *Gateway {
	sc := m.sidecars[pod.Name()]
	if sc == nil {
		sc = m.InjectSidecar(pod)
	}
	return &Gateway{mesh: m, sc: sc, durations: make(map[string]*hdr.Histogram)}
}

// SetClassifier installs the ingress classifier.
func (g *Gateway) SetClassifier(c Classifier) { g.classifier = c }

// Served returns the number of external requests admitted.
func (g *Gateway) Served() uint64 { return g.served }

// Serve admits an external request: it mints the x-request-id that
// ties the whole distributed trace (and the provenance chain) together,
// runs the classifier, records the root span, and routes the request
// to the service named by its "host" header. cb fires exactly once
// with the final response or error.
func (g *Gateway) Serve(req *httpsim.Request, cb func(*httpsim.Response, error)) {
	m := g.mesh
	g.served++

	traceID := m.tracer.NewTraceID()
	req.Headers.Set(trace.HeaderRequestID, traceID)
	if g.classifier != nil {
		g.classifier(req)
	}
	// Stamp the end-to-end deadline budget (unless the external caller
	// supplied one) from the destination service's admission policy.
	if !req.Headers.Has(HeaderBudget) {
		if b := g.sc.admissionPolicyFor(req.Headers.Get(HeaderHost)).Budget; b > 0 {
			req.Headers.Set(HeaderBudget, strconv.FormatInt(b.Microseconds(), 10))
		}
	}

	root := m.tracer.Open(trace.Span{
		TraceID:  traceID,
		Service:  "ingress-gateway",
		Name:     m.tracer.Name(req.Method, req.Path),
		Start:    m.sched.Now(),
		Priority: req.Headers.Get(HeaderPriority),
	})
	req.Headers.Set(trace.HeaderSpanID, m.tracer.IDText(uint64(root)))

	var a *admitted
	if n := len(g.admitted); n > 0 {
		a = g.admitted[n-1]
		g.admitted = g.admitted[:n-1]
	} else {
		a = new(admitted)
		a.done = a.finish
	}
	a.g, a.req, a.root, a.start, a.cb = g, req, root, m.sched.Now(), cb
	g.sc.Call(req, a.done)
}

// finish closes the root span, records the request's duration and
// answers the caller, after returning the record to the free list.
func (a *admitted) finish(resp *httpsim.Response, err error) {
	g, req, root, start, cb := a.g, a.req, a.root, a.start, a.cb
	*a = admitted{done: a.done}
	g.admitted = append(g.admitted, a) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
	m := g.mesh
	var status int32
	if err == nil {
		status = int32(resp.Status)
	}
	m.tracer.Close(root, m.sched.Now(), status, 0)
	g.duration(req.Headers.Get(HeaderPriority)).RecordDuration(m.sched.Now() - start)
	// Degraded-but-served accounting at the edge: the provenance
	// header distinguishes a full success from a response some
	// fallback papered over (E17's degraded-response fraction).
	if err == nil && resp.Headers.Get(HeaderDegraded) != "" {
		m.metrics.Counter(MetricGatewayDegradedTotal,
			metrics.Labels{"origin": resp.Headers.Get(HeaderDegraded)}).Inc()
	}
	cb(resp, err)
}

// duration is MetricGatewayRequestDuration for requests of a priority.
func (g *Gateway) duration(priority string) *hdr.Histogram {
	h := g.durations[priority]
	if h == nil {
		labels := metrics.Labels{"service": "ingress-gateway", "direction": "inbound"}
		if priority != "" {
			labels["priority"] = priority
		}
		h = g.mesh.metrics.Histogram(MetricGatewayRequestDuration, labels)
		g.durations[priority] = h
	}
	return h
}

// PathClassifier returns a classifier assigning priorities by path
// prefix, defaulting to def for unmatched paths. It is the common
// concrete form of ingress classification: user-facing paths are
// latency-sensitive, batch/analytics paths are not.
func PathClassifier(prefixes map[string]string, def string) Classifier {
	// Longest-prefix-first, ties broken lexicographically, so matching
	// is deterministic regardless of map iteration order.
	ordered := make([]string, 0, len(prefixes))
	for p := range prefixes {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if len(ordered[i]) != len(ordered[j]) {
			return len(ordered[i]) > len(ordered[j])
		}
		return ordered[i] < ordered[j]
	})
	return func(req *httpsim.Request) {
		for _, prefix := range ordered {
			if strings.HasPrefix(req.Path, prefix) {
				req.Headers.Set(HeaderPriority, prefixes[prefix])
				return
			}
		}
		if def != "" {
			req.Headers.Set(HeaderPriority, def)
		}
	}
}
