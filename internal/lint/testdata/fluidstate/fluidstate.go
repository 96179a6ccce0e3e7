// Package fluidstatetest seeds violations for the fluidstate analyzer.
// The type names mirror internal/simnet's fluid fast path (FlowEngine,
// NIC, Timer) so the name-based scoping matches.
package fluidstatetest

type Timer struct{ gen int }

func (t Timer) Cancel() {}

// After stands in for Scheduler.After.
func After(d int, f func()) Timer { return Timer{} }

// NIC carries the per-link fluid scratch fields the engine's recompute
// cycle owns.
type NIC struct {
	fluidRate float64
	fluidCap  float64
	fluidCnt  int
	fluidSeen bool
}

// fluidFlow is a pooled flow record.
type fluidFlow struct {
	id     int
	onDone func()
}

// FlowEngine mirrors the real engine: a flow pool and one completion
// timer.
type FlowEngine struct {
	nics  []*NIC
	pool  []*fluidFlow
	timer Timer
}

func (e *FlowEngine) free(f *fluidFlow) { e.pool = append(e.pool, f) }
func (e *FlowEngine) alloc() *fluidFlow { return &fluidFlow{} }
func (e *FlowEngine) onTimer()          {}

// Rule 1: scratch belongs to the engine; outside writers are flagged.
func poke(n *NIC) {
	n.fluidRate = 1 // want "outside a FlowEngine method"
}

// Rule 2 satisfied: the seeds are reset before the fill reads them,
// a NIC the scope grows by is reset where it is marked, and the flag
// is cleared before the method returns.
func (e *FlowEngine) recompute(line float64, grown *NIC) {
	for _, n := range e.nics {
		n.fluidRate, n.fluidCap, n.fluidCnt = 0, line, 0
	}
	if !grown.fluidSeen {
		grown.fluidSeen = true
		grown.fluidRate, grown.fluidCap, grown.fluidCnt = 0, line, 0
		e.nics = append(e.nics, grown)
	}
	grown.fluidCnt++
	for _, n := range e.nics {
		n.fluidCap -= 2.5
		if n.fluidCap < 0 {
			n.fluidCap = 0
		}
		n.fluidRate += 2.5
	}
	for _, n := range e.nics {
		n.fluidSeen = false
	}
	e.nics = e.nics[:0]
}

// Rule 2 satisfied: seeding the next scope only marks; it is not a fill.
func (e *FlowEngine) seed(n *NIC) {
	if !n.fluidSeen {
		n.fluidSeen = true
		e.nics = append(e.nics, n)
	}
}

// Rule 2 violation: the fill counts on seeds whose fluidCnt was never
// reset.
func (e *FlowEngine) recomputeStaleSeed(line float64) {
	for _, n := range e.nics {
		n.fluidRate, n.fluidCap = 0, line
	}
	for _, n := range e.nics {
		n.fluidCnt++ // want "before fluidCnt is reset"
	}
	for _, n := range e.nics {
		n.fluidSeen = false
	}
}

// Rule 2 violation: a NIC the scope grows by keeps the fluidRate of the
// last fill that reached it; the reset of the seeds does not cover it.
func (e *FlowEngine) recomputeStaleGrowth(line float64, grown *NIC) {
	for _, n := range e.nics {
		n.fluidRate, n.fluidCap, n.fluidCnt = 0, line, 0
	}
	if !grown.fluidSeen {
		grown.fluidSeen = true // want "without resetting fluidRate in the same block"
		grown.fluidCap, grown.fluidCnt = line, 0
	}
	grown.fluidCnt++
	grown.fluidSeen = false
}

// Rule 2 violation: the scope flag outlives the method.
func (e *FlowEngine) recomputeLeak(line float64) {
	for _, n := range e.nics {
		n.fluidSeen = false
		n.fluidRate, n.fluidCap, n.fluidCnt = 0, line, 0
	}
	for _, n := range e.nics {
		n.fluidRate += 2.5 // want "fluidSeen is not cleared after the last scope write"
	}
}

// Rule 2 violation: an early return skips the clear.
func (e *FlowEngine) recomputeEarlyReturn(line float64, flows int) {
	for _, n := range e.nics {
		n.fluidRate, n.fluidCap, n.fluidCnt = 0, line, 0
		n.fluidCnt++
	}
	if flows == 0 {
		return // want "return between the first scope write and the fluidSeen clear"
	}
	for _, n := range e.nics {
		n.fluidSeen = false
	}
}

// Rule 3 violation: reading a pooled flow after freeing it.
func (e *FlowEngine) complete(f *fluidFlow) {
	cb := f.onDone
	e.free(f)
	cb()
	_ = f.id // want "used after FlowEngine.free"
}

// Rule 3 satisfied: a whole-variable reassignment revalidates the
// handle.
func (e *FlowEngine) recycle(f *fluidFlow) {
	e.free(f)
	f = e.alloc()
	f.id = 1
}

// Rule 4 violation: replacing the completion timer over a pending one.
func (e *FlowEngine) rearmBad(d int) {
	e.timer = After(d, e.onTimer) // want "re-armed without cancelling"
}

// Rule 4 satisfied: cancel, then re-arm.
func (e *FlowEngine) rearmGood(d int) {
	e.timer.Cancel()
	e.timer = After(d, e.onTimer)
}

// Assigning the zero Timer is the consumed marker, always allowed.
func (e *FlowEngine) consume() {
	e.timer = Timer{}
}

// Sanctioned: a post-free audit that only logs the stale id.
func (e *FlowEngine) audit(f *fluidFlow) {
	e.free(f)
	//meshvet:allow fluidstate audit log reads the recycled id only
	_ = f.id
}
