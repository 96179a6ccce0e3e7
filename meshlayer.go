// Package meshlayer is the public API of this repository: a library for
// studying service meshes as a network layer, reproducing "Leveraging
// Service Meshes as a New Network Layer" (Ashok, Godfrey, Mittal —
// HotNets '21).
//
// The library bundles, from the bottom up:
//
//   - a deterministic packet-level network simulator with Linux-tc-style
//     queueing disciplines (internal/simnet, internal/tc);
//   - a reliable transport with pluggable congestion control, including
//     the scavenger protocols LEDBAT and TCP-LP (internal/transport);
//   - an HTTP-style messaging layer, a Kubernetes-like cluster model,
//     and an Istio-like service mesh with sidecars, a control plane,
//     distributed tracing, and an ingress gateway (internal/httpsim,
//     internal/cluster, internal/mesh, internal/trace);
//   - the paper's contribution, cross-layer prioritization via
//     provenance tracing (internal/core), plus an SDN controller for
//     the lower-layer coordination variant (internal/sdn);
//   - sample applications and a wrk2-style open-loop load generator
//     (internal/app, internal/workload).
//
// This package exposes the scenario-level API: build the paper's
// e-library testbed, enable any subset of the cross-layer
// optimizations, drive mixed workloads, and collect latency
// distributions. Each experiment from the paper's evaluation has a
// runner in experiments.go and an entry in the registry (registry.go)
// that cmd/meshbench and the golden-file test iterate.
package meshlayer

import (
	"fmt"
	"strings"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/core"
	"meshlayer/internal/hdr"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/sdn"
	"meshlayer/internal/simnet"
	"meshlayer/internal/workload"
)

// Optimization selects which of the paper's §4.2(3) cross-layer
// optimizations are active.
type Optimization struct {
	// Routing is (3a): priority-pinned replica pools in the mesh.
	Routing bool
	// Scavenger is (3b): latency-insensitive transfers on LEDBAT.
	Scavenger bool
	// TC is (3c): nearly-strict (95%) priority queueing at virtual NICs.
	TC bool
	// SDN is (3d): flow priorities announced to an SDN controller that
	// steers low-priority flows onto an alternate path when the
	// bottleneck runs hot.
	SDN bool
}

// AllOptimizations enables every cross-layer optimization.
func AllOptimizations() Optimization {
	return Optimization{Routing: true, Scavenger: true, TC: true, SDN: true}
}

// PaperOptimizations matches the paper's prototype (§4.3): priority
// routing plus TC packet prioritization. (Scavenger transport and SDN
// coordination are sketched as 3b/3d but left to future work there;
// this repo implements them too — see the ablation experiment.)
func PaperOptimizations() Optimization {
	return Optimization{Routing: true, TC: true}
}

// None disables all optimizations (the baseline).
func None() Optimization { return Optimization{} }

// Any reports whether at least one optimization is on.
func (o Optimization) Any() bool { return o.Routing || o.Scavenger || o.TC || o.SDN }

// ParseOptimizations parses an optimization list separated by commas
// or by pluses ("routing,tc", "routing+tc", "all", "baseline", "") as
// the CLIs accept it, so a combination's String parses back to it.
func ParseOptimizations(s string) (Optimization, error) {
	var o Optimization
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '+' }) {
		switch strings.TrimSpace(part) {
		case "", "none", "baseline":
		case "routing":
			o.Routing = true
		case "tc":
			o.TC = true
		case "scavenger":
			o.Scavenger = true
		case "sdn":
			o.SDN = true
		case "all":
			o = AllOptimizations()
		default:
			return Optimization{}, fmt.Errorf("unknown optimization %q", part)
		}
	}
	return o, nil
}

// String names the combination compactly ("routing+tc").
func (o Optimization) String() string {
	if !o.Any() {
		return "baseline"
	}
	s := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if s != "" {
			s += "+"
		}
		s += name
	}
	add(o.Routing, "routing")
	add(o.Scavenger, "scavenger")
	add(o.TC, "tc")
	add(o.SDN, "sdn")
	return s
}

// Scenario is a fully assembled e-library testbed with optional
// cross-layer prioritization, ready to serve requests.
type Scenario struct {
	App        *app.ELibrary
	CrossLayer *core.Controller // nil when no optimization is enabled
	SDN        *sdn.Controller  // nil unless Optimization.SDN
	Opt        Optimization
}

// ScenarioConfig parameterizes NewScenario.
type ScenarioConfig struct {
	// Opt selects the active optimizations.
	Opt Optimization
	// Seed drives all randomness (mesh jitter; workload seeds are
	// separate). Equal seeds give identical runs.
	Seed int64
	// App varies the e-library testbed; each zero field keeps the paper's
	// value (1 Gbps bottleneck, 2 MB LI responses, one zone, one region).
	App app.ELibraryConfig
}

// NewScenario builds the paper's Fig. 3 testbed: the e-library on a
// simulated single-host cluster, the mesh, the ingress classifier, and
// whichever cross-layer optimizations cfg selects. cfg.App need only name
// what differs from the paper's testbed — {Zones: 3} is three zones of
// it — and s.App.Config holds the values the build resolved.
func NewScenario(cfg ScenarioConfig) *Scenario {
	appCfg := cfg.App
	appCfg.Mesh.Seed = cfg.Seed
	e := app.BuildELibrary(appCfg)
	e.Gateway.SetClassifier(app.Classifier())

	s := &Scenario{App: e, Opt: cfg.Opt}
	if !cfg.Opt.Any() {
		return s
	}

	coreCfg := core.Config{
		Mesh:            e.Mesh,
		EnableRouting:   cfg.Opt.Routing,
		EnableScavenger: cfg.Opt.Scavenger,
		EnableTC:        cfg.Opt.TC,
		PriorityPools: map[string]core.PoolPair{
			"reviews": {
				High: mesh.SubsetRef{Key: "version", Value: "v1"},
				Low:  mesh.SubsetRef{Key: "version", Value: "v2"},
			},
		},
	}
	if cfg.Opt.SDN {
		// Give ratings a second, smaller uplink as the TE alternate
		// path, and steer low-priority flows onto it under load.
		alt := e.Cluster.AddUplink(e.Ratings, simnet.LinkConfig{
			Rate:  e.Config.BottleneckRate / 2,
			Delay: 40 * time.Microsecond,
		})
		ctrl := sdn.New(e.Net, 50*time.Millisecond)
		ctrl.AddTERoute(sdn.TERoute{
			Node:      e.Ratings.Node(),
			Primary:   e.Ratings.NIC(),
			Alternate: alt.A(),
			Threshold: 0.6,
		})
		s.SDN = ctrl
		coreCfg.EnableSDN = true
		coreCfg.SDN = ctrl
	}
	s.CrossLayer = core.Enable(coreCfg)
	return s
}

// WorkloadStats summarizes one workload class's measured window.
type WorkloadStats struct {
	P50, P90, P99, Mean time.Duration
	Count, Errors       uint64
	Hist                *hdr.Histogram
}

func statsOf(r *workload.Results) WorkloadStats {
	return WorkloadStats{
		P50:    r.P50(),
		P90:    r.Hist.QuantileDuration(0.90),
		P99:    r.P99(),
		Mean:   r.Mean(),
		Count:  r.Measured,
		Errors: r.Errors,
		Hist:   r.Hist,
	}
}

// MixedConfig parameterizes RunMixed: the paper's two simultaneous
// workloads at a common average rate.
type MixedConfig struct {
	// RPS is the average arrival rate of EACH workload (paper: 10-50).
	RPS float64
	// Seed separates arrival randomness across runs.
	Seed int64
	// Warmup, Measure, Cooldown bracket the measured window. Zero
	// values select 2s / 20s / 1s (the paper ran 5 minutes; latency
	// distributions here converge much faster because the simulation
	// is noiseless).
	Warmup, Measure, Cooldown time.Duration
	// LSObserver and LIObserver, if set, see every completion of the
	// respective workload (completion time, latency, failed) — plug in
	// workload.Timeline.Observe for latency-over-time views.
	LSObserver, LIObserver func(at, latency time.Duration, failed bool)
}

func (c *MixedConfig) fill() {
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 20 * time.Second
	}
	if c.Cooldown == 0 {
		c.Cooldown = time.Second
	}
}

// MixedResult reports both workloads of one mixed run.
type MixedResult struct {
	Opt    Optimization
	RPS    float64
	LS, LI WorkloadStats
}

// RunMixed drives the paper's §4.3 experiment once: latency-sensitive
// product-page traffic and latency-insensitive analytics traffic hit
// the ingress simultaneously at cfg.RPS each; returns the measured
// latency distributions.
func (s *Scenario) RunMixed(cfg MixedConfig) MixedResult {
	cfg.fill()
	e := s.App
	mk := func(name string, newReq func() *httpsim.Request, seed int64, obs func(at, lat time.Duration, failed bool)) workload.Spec {
		return workload.Spec{
			Name: name, Rate: cfg.RPS, NewRequest: newReq, Seed: seed,
			Warmup: cfg.Warmup, Measure: cfg.Measure, Cooldown: cfg.Cooldown,
			OnComplete: obs,
		}
	}
	ls := workload.Start(e.Sched, e.Gateway, mk("latency-sensitive", app.NewProductRequest, cfg.Seed*2+1, cfg.LSObserver))
	li := workload.Start(e.Sched, e.Gateway, mk("latency-insensitive", app.NewAnalyticsRequest, cfg.Seed*2+2, cfg.LIObserver))
	total := cfg.Warmup + cfg.Measure + cfg.Cooldown
	e.Sched.RunFor(total + 2*time.Second) // drain stragglers
	return MixedResult{Opt: s.Opt, RPS: cfg.RPS, LS: statsOf(ls.Results()), LI: statsOf(li.Results())}
}

// RunMixedOnce builds a fresh scenario and runs one mixed measurement —
// the one-call form used by the experiment sweeps.
func RunMixedOnce(opt Optimization, cfg MixedConfig) MixedResult {
	s := NewScenario(ScenarioConfig{Opt: opt, Seed: cfg.Seed})
	return s.RunMixed(cfg)
}

// RequestClass selects one of the e-library's two workload classes.
type RequestClass int

// The two request classes of the motivating scenario (§4.1).
const (
	// ProductRequest is a latency-sensitive user-facing page view.
	ProductRequest RequestClass = iota
	// AnalyticsRequest is a latency-insensitive batch scan with a
	// ~200x larger response.
	AnalyticsRequest
)

// Serve submits one external request of the class and reports its
// end-to-end latency and HTTP status. The callback runs inside the
// simulation; combine with Run/RunFor.
func (s *Scenario) Serve(class RequestClass, cb func(latency time.Duration, status int, err error)) {
	req := app.NewProductRequest()
	if class == AnalyticsRequest {
		req = app.NewAnalyticsRequest()
	}
	start := s.App.Sched.Now()
	s.App.Gateway.Serve(req, func(resp *httpsim.Response, err error) {
		status := 0
		if resp != nil {
			status = resp.Status
		}
		if cb != nil {
			cb(s.App.Sched.Now()-start, status, err)
		}
	})
}

// Run advances the simulation until no work remains.
func (s *Scenario) Run() { s.App.Sched.Run() }

// RunFor advances the simulation by d.
func (s *Scenario) RunFor(d time.Duration) { s.App.Sched.RunFor(d) }

// Now returns the current simulated time.
func (s *Scenario) Now() time.Duration { return s.App.Sched.Now() }

// TraceTrees renders every collected distributed trace as an indented
// call tree, annotated with its provenance class.
func (s *Scenario) TraceTrees() []string {
	tracer := s.App.Mesh.Tracer()
	var out []string
	for _, id := range tracer.TraceIDs() {
		tree := tracer.Tree(id)
		if tree == nil {
			continue
		}
		hdr := "trace " + id
		if p := tree.Span.Priority; p != "" {
			hdr += " (priority=" + p + ")"
		}
		out = append(out, hdr+"\n"+tree.Format())
	}
	return out
}
