// Package mesh implements a service mesh in the Istio/Envoy mould on
// top of the simulated cluster: a control plane holding routing rules,
// load-balancing, retry, and security policy; sidecar proxies that
// intercept every pod's inbound and outbound requests; and an ingress
// gateway admitting external traffic.
//
// The mesh is the paper's subject — "a new layer in the networking
// stack between application and transport" (§3.1). Its extension
// points (filters, connection classes, subset routing) are what the
// cross-layer prioritization controller in internal/core plugs into.
package mesh

import (
	"math/rand"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
	"meshlayer/internal/trace"
)

// InboundPort is the sidecar's service port, analogous to Envoy's
// 15006 virtual-inbound listener.
const InboundPort = 15006

// Header names live in headers.go, the mesh header registry.

// Priority header values.
const (
	PriorityHigh = "high"
	PriorityLow  = "low"
)

// Config tunes mesh-wide behaviour.
type Config struct {
	// SidecarDelayMean is the mean per-traversal proxy processing
	// delay (each request or response passing through each sidecar
	// samples one exponential delay). Zero selects DefaultSidecarDelay;
	// negative disables the overhead entirely.
	SidecarDelayMean time.Duration
	// Seed drives the mesh's private randomness (proxy jitter, random
	// LB). Runs with equal seeds are identical.
	Seed int64
}

// DefaultSidecarDelay yields ~1-3 ms of combined two-proxy overhead at
// the tail, consistent with the Istio numbers the paper cites (§3.6).
const DefaultSidecarDelay = 250 * time.Microsecond

// Mesh ties the control plane and the per-pod sidecars together.
type Mesh struct {
	cluster *cluster.Cluster
	sched   *simnet.Scheduler
	cp      *ControlPlane
	tracer  *trace.Collector
	metrics *metrics.Registry
	// series caches each service's hot metric handles (series.go).
	series map[string]*serviceSeries
	rng    *rand.Rand

	sidecars map[string]*Sidecar
	// eastwest holds the per-region east-west gateways (eastwest.go).
	eastwest map[string]*EastWestGateway
	delay    time.Duration

	// degraded is the degraded-response provenance (degrade.go): trace
	// ID -> the upstream a fallback papered over, until a response of
	// the request restores it.
	degraded trace.Provenance[string]

	// attempts, calls and inbounds are the free lists of attempt, call
	// and inbound records (sidecar.go); attemptsMade, callsMade and
	// inboundsMade count the records made.
	attempts     []*attempt
	calls        []*call
	inbounds     []*inbound
	attemptsMade int
	callsMade    int
	inboundsMade int
}

// New builds a mesh over the cluster.
func New(cl *cluster.Cluster, cfg Config) *Mesh {
	delay := cfg.SidecarDelayMean
	if delay == 0 {
		delay = DefaultSidecarDelay
	}
	if delay < 0 {
		delay = 0
	}
	m := &Mesh{
		cluster:  cl,
		sched:    cl.Scheduler(),
		tracer:   trace.NewCollector(),
		metrics:  metrics.NewRegistry(),
		series:   make(map[string]*serviceSeries),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		sidecars: make(map[string]*Sidecar),
		eastwest: make(map[string]*EastWestGateway),
		delay:    delay,
	}
	m.cp = newControlPlane(m)
	return m
}

// Cluster returns the underlying cluster.
func (m *Mesh) Cluster() *cluster.Cluster { return m.cluster }

// ControlPlane returns the mesh control plane.
func (m *Mesh) ControlPlane() *ControlPlane { return m.cp }

// Tracer returns the distributed-tracing collector.
func (m *Mesh) Tracer() *trace.Collector { return m.tracer }

// Metrics returns the telemetry registry.
func (m *Mesh) Metrics() *metrics.Registry { return m.metrics }

// Scheduler returns the simulation scheduler.
func (m *Mesh) Scheduler() *simnet.Scheduler { return m.sched }

// Sidecar returns the sidecar injected into the named pod, or nil.
func (m *Mesh) Sidecar(podName string) *Sidecar { return m.sidecars[podName] }

// Sidecars returns all sidecars (pod creation order).
func (m *Mesh) Sidecars() []*Sidecar {
	var out []*Sidecar
	for _, p := range m.cluster.Pods() {
		if sc, ok := m.sidecars[p.Name()]; ok {
			out = append(out, sc)
		}
	}
	return out
}

// proxyDelay samples one sidecar-traversal processing delay.
func (m *Mesh) proxyDelay() time.Duration {
	if m.delay == 0 {
		return 0
	}
	return time.Duration(m.rng.ExpFloat64() * float64(m.delay))
}
