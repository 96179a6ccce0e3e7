// Package autoscale implements a horizontal pod autoscaler over the
// simulated cluster: it periodically samples each target service's
// worker utilization and adjusts replica counts toward a utilization
// setpoint, HPA-style. Scaling actuation is delegated to the
// application (e.g. app.DAG.Scale), since new replicas need handlers.
//
// A scale event changes the cluster's endpoint sets, and how fast
// sidecars learn about it depends on the mesh's propagation mode:
// instant by default, but with ControlPlane.EnableDistribution the
// change is debounced, versioned, and pushed — new capacity (and
// removals) reach each sidecar only when its snapshot is updated.
// E18 measures that propagation delay under churn.
package autoscale

import (
	"fmt"
	"math"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/simnet"
)

// Target configures autoscaling for one service.
type Target struct {
	// Service is the service name.
	Service string
	// Min and Max bound the ready replica count.
	Min, Max int
	// Utilization is the busy-worker fraction setpoint in (0, 1),
	// e.g. 0.6 — the HPA target.
	Utilization float64
}

// Scaler actuates replica changes; app.DAG satisfies it.
type Scaler interface {
	Scale(service string, replicas int) error
	ReadyReplicas(service string) int
}

// Config assembles a Controller.
type Config struct {
	Cluster *cluster.Cluster
	Scaler  Scaler
	Targets []Target
	// Interval is the evaluation period (default 5s).
	Interval time.Duration
	// ScaleDownCooldown delays scale-downs after any scaling action
	// (default 30s) to prevent flapping.
	ScaleDownCooldown time.Duration
}

// tolerance suppresses scaling when |desired/current - 1| is within it
// (as in Kubernetes).
const tolerance = 0.1

// Controller is a running autoscaler.
type Controller struct {
	cfg     Config
	sched   *simnet.Scheduler
	running bool

	lastChange map[string]time.Duration
	scaleUps   uint64
	scaleDowns uint64
}

// New validates the config and returns a stopped controller.
func New(cfg Config) *Controller {
	if cfg.Cluster == nil || cfg.Scaler == nil {
		panic("autoscale: cluster and scaler required")
	}
	if len(cfg.Targets) == 0 {
		panic("autoscale: no targets")
	}
	for _, t := range cfg.Targets {
		if t.Service == "" || t.Min < 1 || t.Max < t.Min {
			panic(fmt.Sprintf("autoscale: bad target %+v", t))
		}
		if t.Utilization <= 0 || t.Utilization >= 1 {
			panic(fmt.Sprintf("autoscale: utilization must be in (0,1): %+v", t))
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.ScaleDownCooldown == 0 {
		cfg.ScaleDownCooldown = 30 * time.Second
	}
	return &Controller{
		cfg:        cfg,
		sched:      cfg.Cluster.Scheduler(),
		lastChange: make(map[string]time.Duration),
	}
}

// Start begins periodic evaluation.
func (c *Controller) Start() {
	if c.running {
		return
	}
	c.running = true
	c.tick()
}

// Stop halts evaluation after the current period.
func (c *Controller) Stop() { c.running = false }

// ScaleUps and ScaleDowns report actuation counts.
func (c *Controller) ScaleUps() uint64 { return c.scaleUps }

// ScaleDowns reports the number of scale-down actions taken.
func (c *Controller) ScaleDowns() uint64 { return c.scaleDowns }

func (c *Controller) tick() {
	if !c.running {
		return
	}
	for _, t := range c.cfg.Targets {
		c.evaluate(t)
	}
	c.sched.After(c.cfg.Interval, c.tick)
}

// utilization samples the mean busy fraction across the service's
// ready pods. Pods with unbounded workers report via queue pressure
// instead (busy/1+queue heuristic is meaningless there, so they are
// skipped).
func (c *Controller) utilization(service string) (float64, int) {
	ready := 0
	var sum float64
	for _, p := range c.cfg.Cluster.Pods() {
		if p.Label("app") != service || !p.Ready() {
			continue
		}
		ready++
		w := p.Workers()
		if cap := w.Capacity(); cap > 0 {
			// Queued work counts as demand beyond capacity, so a
			// backlogged pod reads >1.0 and drives a proportional
			// scale-up in one step.
			sum += (float64(w.Busy()) + float64(w.QueueLen())) / float64(cap)
		}
	}
	if ready == 0 {
		return 0, 0
	}
	return sum / float64(ready), ready
}

func (c *Controller) evaluate(t Target) {
	util, ready := c.utilization(t.Service)
	if ready == 0 {
		return
	}
	desired := int(math.Ceil(float64(ready) * util / t.Utilization))
	if desired < t.Min {
		desired = t.Min
	}
	if desired > t.Max {
		desired = t.Max
	}
	if desired == ready {
		return
	}
	ratio := float64(desired) / float64(ready)
	if math.Abs(ratio-1) <= tolerance {
		return
	}
	now := c.sched.Now()
	if desired < ready {
		if now-c.lastChange[t.Service] < c.cfg.ScaleDownCooldown {
			return
		}
		c.scaleDowns++
	} else {
		c.scaleUps++
	}
	if err := c.cfg.Scaler.Scale(t.Service, desired); err != nil {
		return
	}
	c.lastChange[t.Service] = now
}
