// Package timerowntest seeds violations for the timerown analyzer:
// the Timer type mirrors simnet.Timer so the name-based matching
// applies.
package timerowntest

type Timer struct{ gen int }

func (t Timer) Cancel() {}

type sched struct{}

func (s *sched) After(d int, f func()) Timer { return Timer{} }

func (s *sched) Rearm(t Timer, at int, f func()) Timer { return Timer{} }

type conn struct {
	retxTimer Timer
	fbTimer   Timer
	done      bool
}

// Arming straight into a field without cancelling the pending timer.
func (c *conn) armBad(s *sched) {
	c.retxTimer = s.After(1, func() {}) // want "without first cancelling"
}

// Cancel first (a no-op when the field is empty), then arm.
func (c *conn) armGood(s *sched) {
	c.retxTimer.Cancel()
	c.retxTimer = s.After(1, func() {})
}

// Captured and dropped on the floor: nobody can ever cancel it.
func leak(s *sched) {
	t := s.After(1, func() {}) // want "captured but never cancelled"
	_ = t
}

// The three sanctioned fates of a captured timer.
func cancelled(s *sched) {
	t := s.After(1, func() {})
	t.Cancel()
}

func returned(s *sched) Timer {
	t := s.After(1, func() {})
	return t
}

func owned(s *sched, c *conn) {
	t := s.After(1, func() {})
	c.retxTimer = t
}

// Two owning fields race to cancel the same timer.
func doubleOwner(s *sched, c *conn) {
	t := s.After(1, func() {}) // want "stored into 2 fields"
	c.retxTimer = t
	c.fbTimer = t
}

// Discarding the result is the explicit fire-and-forget form; the
// callback guards itself on the settled flag.
func fireAndForget(s *sched, c *conn) {
	s.After(1, func() { c.done = true })
}

// The backoff re-arm shape (the control plane's retry timer): the
// cancel may be separated from the arm by bookkeeping statements — the
// discipline is positional within the function, not adjacency.
func (c *conn) backoffRearm(s *sched) {
	c.retxTimer.Cancel()
	c.done = false
	c.retxTimer = s.After(2, func() {})
}

// The lease shape gone wrong: a slot-grant arms its lease behind a
// guard without cancelling the previous grant's timer — the pending
// lease is orphaned and fires into the next holder's state.
func (c *conn) leaseBad(s *sched, held bool) {
	if held {
		c.fbTimer = s.After(3, func() { c.done = true }) // want "without first cancelling"
	}
}

// Lease done right: every re-grant cancels before arming, and the
// callback guards itself on owner state (the generation-check idiom).
func (c *conn) leaseGood(s *sched, held bool) {
	if held {
		c.fbTimer.Cancel()
		c.fbTimer = s.After(3, func() {
			if c.done {
				return
			}
		})
	}
}

// Sanctioned: the timer is handed to a registry that cancels it at
// teardown, which the analyzer cannot see.
func sanctioned(s *sched) {
	//meshvet:allow timerown teardown registry cancels every enrolled timer
	t := s.After(1, func() {})
	enroll(t)
}

func enroll(Timer) {}

// Rearm cancels (or moves) its first argument itself: assigning the
// result back to the same field is an owning re-arm, no Cancel needed.
func (c *conn) rearmOwned(s *sched) {
	c.retxTimer = s.Rearm(c.retxTimer, 4, func() {})
}

// The same re-arm behind a guard, and on a local the function returns.
func (c *conn) rearmGuarded(s *sched, held bool) Timer {
	if held {
		c.fbTimer = s.Rearm(c.fbTimer, 4, func() {})
	}
	t := c.retxTimer
	t = s.Rearm(t, 5, func() {})
	return t
}

// Re-armed from one field into another: the event may still be the
// first field's, so both would cancel it.
func (c *conn) rearmCrossed(s *sched) {
	c.fbTimer = s.Rearm(c.retxTimer, 4, func() {}) // want "two owners"
}

// Re-armed out of a field into a local: the same two-owner hazard.
func (c *conn) rearmIntoLocal(s *sched) {
	t := s.Rearm(c.retxTimer, 4, func() {}) // want "two owners"
	t.Cancel()
}

// A local re-armed onto itself still owes the local-timer rule.
func rearmLocalLeak(s *sched, t Timer) {
	t = s.Rearm(t, 4, func() {}) // want "captured but never cancelled"
	_ = t
}
