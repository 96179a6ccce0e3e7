// Package chaos is a deterministic fault-injection harness for the
// simulated mesh: scenarios schedule composable faults (pod crashes,
// loss bursts — a link flap is a scenario of total-loss bursts — gray
// failures, control-plane staleness) on the virtual clock and revert
// them after their duration, while a recorder tracks availability and
// recovery. Everything is driven by the simulation scheduler and
// seeded PRNGs, so a scenario replays bit-identically — the property
// the determinism golden check in CI enforces.
//
// The package exists to answer the paper's implicit question (§3.4):
// if the mesh layer owns resilience, does it actually keep the
// application up when the substrate misbehaves? E15 runs these
// scenarios against increasing defense levels to find out.
package chaos

import (
	"fmt"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// Target is everything a fault may manipulate.
type Target struct {
	Sched   *simnet.Scheduler
	Cluster *cluster.Cluster
	Mesh    *mesh.Mesh
}

// Fault is one revertible failure mode. Inject and Revert are invoked
// by the engine on the virtual clock; a Fault must restore the exact
// pre-injection state on Revert.
type Fault interface {
	Name() string
	Inject(t *Target)
	Revert(t *Target)
}

// validator is implemented by faults that can sanity-check their
// configuration against the target before the scenario starts.
type validator interface {
	validate(t *Target) error
}

// Event schedules one fault within a scenario.
type Event struct {
	// At is the absolute virtual time of injection.
	At time.Duration
	// Duration is how long the fault persists before the engine
	// reverts it. Zero means the fault is never reverted (a permanent
	// failure for the run).
	Duration time.Duration
	Fault    Fault
}

// Scenario is a named, ordered set of fault events — the DSL a chaos
// suite is written in.
type Scenario struct {
	Name   string
	Events []Event
}

// Engine arms a scenario's events on the scheduler and keeps a
// human-readable log of every injection and reversion.
type Engine struct {
	target *Target
	log    []string
}

// NewEngine builds an engine over a fully-populated target.
func NewEngine(t *Target) *Engine {
	if t == nil || t.Sched == nil || t.Cluster == nil || t.Mesh == nil {
		panic("chaos: engine target needs Sched, Cluster, and Mesh")
	}
	return &Engine{target: t}
}

// Schedule validates the scenario and arms every event. Call before
// running the scheduler; injection/reversion then happen at their
// virtual times.
func (e *Engine) Schedule(s Scenario) {
	for i, ev := range s.Events {
		if ev.Fault == nil {
			panic(fmt.Sprintf("chaos: scenario %q event %d has no fault", s.Name, i))
		}
		if ev.At < 0 || ev.Duration < 0 {
			panic(fmt.Sprintf("chaos: scenario %q event %d has negative time", s.Name, i))
		}
		if v, ok := ev.Fault.(validator); ok {
			if err := v.validate(e.target); err != nil {
				panic(fmt.Sprintf("chaos: scenario %q event %d: %v", s.Name, i, err))
			}
		}
		ev := ev
		e.target.Sched.At(ev.At, func() {
			e.logf("%v inject %s", e.target.Sched.Now(), ev.Fault.Name())
			ev.Fault.Inject(e.target)
		})
		if ev.Duration > 0 {
			e.target.Sched.At(ev.At+ev.Duration, func() {
				e.logf("%v revert %s", e.target.Sched.Now(), ev.Fault.Name())
				ev.Fault.Revert(e.target)
			})
		}
	}
}

// Log returns the injection/reversion history so far.
func (e *Engine) Log() []string { return e.log }

func (e *Engine) logf(format string, args ...any) {
	e.log = append(e.log, fmt.Sprintf(format, args...))
}
