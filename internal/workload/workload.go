// Package workload implements a wrk2-style open-loop load generator
// for the simulated mesh: requests arrive on their own schedule with
// uniformly random inter-arrival times (as in the paper's §4.3 setup),
// independent of completions, so queueing delay shows up in the
// recorded latencies instead of silently throttling the offered load
// (no coordinated omission).
//
// Each run has warm-up and cool-down periods excluded from measurement,
// again following the paper's methodology.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"meshlayer/internal/hdr"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// Spec describes one workload.
type Spec struct {
	// Name labels the workload in results ("latency-sensitive").
	Name string
	// Rate is the average arrival rate in requests per second.
	Rate float64
	// NewRequest builds each request (called once per arrival).
	NewRequest func() *httpsim.Request
	// Seed drives the arrival process. Generators with different seeds
	// produce independent arrival sequences.
	Seed int64
	// Warmup and Cooldown bracket the Measure window: requests issued
	// outside the window are sent but not recorded.
	Warmup, Measure, Cooldown time.Duration
	// OnComplete, if set, observes every completion (including outside
	// the measure window): completion time, latency, and whether the
	// request failed. Timeline.Observe plugs in here.
	OnComplete func(at, latency time.Duration, failed bool)
}

// TotalDuration returns the full run length.
func (s Spec) TotalDuration() time.Duration { return s.Warmup + s.Measure + s.Cooldown }

// Results summarizes one workload's measured window.
type Results struct {
	Name      string
	Issued    uint64 // all arrivals, including outside the window
	Completed uint64
	Errors    uint64
	Measured  uint64 // latency samples within the window
	Hist      *hdr.Histogram
	Window    time.Duration
}

// P50 returns the median latency of the measured window.
func (r *Results) P50() time.Duration { return r.Hist.QuantileDuration(0.50) }

// P99 returns the 99th-percentile latency of the measured window.
func (r *Results) P99() time.Duration { return r.Hist.QuantileDuration(0.99) }

// Mean returns the mean latency of the measured window.
func (r *Results) Mean() time.Duration { return time.Duration(r.Hist.Mean()) }

// Throughput returns measured completions per second.
func (r *Results) Throughput() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Measured) / r.Window.Seconds()
}

// String renders a wrk2-style summary line.
func (r *Results) String() string {
	return fmt.Sprintf("%s: issued=%d errors=%d p50=%v p99=%v mean=%v",
		r.Name, r.Issued, r.Errors, r.P50(), r.P99(), r.Mean())
}

// Generator drives one workload against a gateway.
type Generator struct {
	sched *simnet.Scheduler
	gw    *mesh.Gateway
	spec  Spec
	rng   *rand.Rand

	start     time.Duration
	issued    uint64
	completed uint64
	errors    uint64
	measured  uint64
	hist      *hdr.Histogram
	running   bool
}

// Start launches the workload at the scheduler's current time. The
// generator stops issuing after spec.TotalDuration().
func Start(sched *simnet.Scheduler, gw *mesh.Gateway, spec Spec) *Generator {
	if spec.Rate <= 0 {
		panic("workload: rate must be positive")
	}
	if spec.NewRequest == nil {
		panic("workload: NewRequest required")
	}
	if spec.Measure <= 0 {
		panic("workload: measure window required")
	}
	g := &Generator{
		sched: sched,
		gw:    gw,
		spec:  spec,
		rng:   rand.New(rand.NewSource(spec.Seed)),
		start: sched.Now(),
		hist:  hdr.New(),
	}
	g.running = true
	g.scheduleNext()
	return g
}

// scheduleNext draws the next inter-arrival gap from U(0, 2/rate) —
// the paper's §4.3 setup ("uniformly random inter-arrival times").
func (g *Generator) scheduleNext() {
	gap := time.Duration(g.rng.Float64() * 2 / g.spec.Rate * float64(time.Second))
	g.sched.After(gap, g.fire)
}

// fire sends one request and draws the next arrival, until the run is
// over.
func (g *Generator) fire() {
	now := g.sched.Now()
	elapsed := now - g.start
	if elapsed >= g.spec.TotalDuration() {
		g.running = false
		return
	}
	g.issued++
	issuedAt := now
	inWindow := elapsed >= g.spec.Warmup && elapsed < g.spec.Warmup+g.spec.Measure
	g.gw.Serve(g.spec.NewRequest(), func(resp *httpsim.Response, err error) {
		g.completed++
		now := g.sched.Now()
		failed := err != nil || resp.Status >= 500
		if failed {
			g.errors++
		} else if inWindow {
			g.measured++
			g.hist.RecordDuration(now - issuedAt)
		}
		if g.spec.OnComplete != nil {
			g.spec.OnComplete(now, now-issuedAt, failed)
		}
	})
	g.scheduleNext()
}

// Running reports whether the generator is still issuing.
func (g *Generator) Running() bool { return g.running }

// Results snapshots the workload's measured statistics.
func (g *Generator) Results() *Results {
	return &Results{
		Name:      g.spec.Name,
		Issued:    g.issued,
		Completed: g.completed,
		Errors:    g.errors,
		Measured:  g.measured,
		Hist:      g.hist,
		Window:    g.spec.Measure,
	}
}
