package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// rearmHandles is how many timer handles a rearm program drives: more
// than compactMinHeap, so bursts of arms and cancels compact the heap.
const rearmHandles = 96

// rearmFire is one dispatched event: when it ran and which arm it was.
type rearmFire struct {
	at time.Duration
	id int
}

// rearmState is what a program can observe of the scheduler after one
// op: dispatches so far, Steps, Pending, the clock, and which handles
// report Stopped.
type rearmState struct {
	fired   int
	steps   uint64
	pending int
	now     time.Duration
	stopped [2]uint64
}

// rearmRun executes a scheduler program decoded from bytes. With lazy
// set, every re-arm is Scheduler.Rearm; without it, Cancel + At. The
// two runs must be indistinguishable.
type rearmRun struct {
	s      *Scheduler
	lazy   bool
	prog   []byte
	h      [rearmHandles]Timer
	due    [rearmHandles]time.Duration
	log    []rearmFire
	states []rearmState
	nextID int
	budget int // callback re-arms left, so every Run drains
}

// next consumes one program byte; an exhausted program reads zeros.
func (r *rearmRun) next() int {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return int(b)
}

// delay draws a small delay: a handful of distinct times, so same-time
// ties are common.
func (r *rearmRun) delay() time.Duration { return time.Duration(r.next() % 8) }

// event returns a fresh event's callback. What it does when it runs is
// drawn now, from the program: nothing, re-arm its own handle, re-arm
// or cancel another handle, or Stop the loop.
func (r *rearmRun) event(self int) func() {
	id := r.nextID
	r.nextID++
	action, j, d := r.next()%8, r.next()%rearmHandles, r.delay()
	return func() {
		r.log = append(r.log, rearmFire{r.s.Now(), id})
		switch action {
		case 1, 2:
			if r.budget > 0 {
				r.budget--
				r.rearm(self, r.s.Now()+d) // from its own callback
			}
		case 3:
			if r.budget > 0 {
				r.budget--
				r.rearm(j, max(r.s.Now(), r.due[j]+d-3)) // someone else's, mid-dispatch
			}
		case 4:
			r.h[j].Cancel()
		case 5:
			r.s.Stop()
		}
	}
}

// rearm moves handle i's timer to at, the way the run was told to.
func (r *rearmRun) rearm(i int, at time.Duration) {
	fn := r.event(i)
	if r.lazy {
		r.h[i] = r.s.Rearm(r.h[i], at, fn)
	} else {
		r.h[i].Cancel()
		r.h[i] = r.s.At(at, fn)
	}
	r.due[i] = at
}

// arm is the plain owner's cancel-then-At, identical in both runs.
func (r *rearmRun) arm(i int, at time.Duration) {
	r.h[i].Cancel()
	r.h[i] = r.s.At(at, r.event(i))
	r.due[i] = at
}

func (r *rearmRun) op() {
	now := r.s.Now()
	switch op, i := r.next()%14, r.next()%rearmHandles; op {
	case 0:
		r.arm(i, now+r.delay())
	case 1:
		r.rearm(i, now+r.delay())
	case 2, 3: // earlier, equal or later than the current deadline
		r.rearm(i, max(now, r.due[i]+r.delay()-3))
	case 4:
		r.h[i].Cancel()
	case 5:
		r.s.Step()
	case 6:
		r.s.RunUntil(now + r.delay())
	case 7: // bounds around the keys a re-armed timer had and has
		r.s.RunUntil(r.due[i] + r.delay() - 4)
	case 8:
		r.budget = 64
		r.s.Run()
	case 9: // a burst of arms grows the heap past compactMinHeap
		for k := 0; k < rearmHandles/2; k++ {
			r.arm((i+k)%rearmHandles, now+r.delay()+4)
		}
	case 10: // a burst of cancels compacts it
		for k := 0; k < rearmHandles/2; k++ {
			r.h[(i+k)%rearmHandles].Cancel()
		}
	case 11: // fire-and-forget events crowd the same times
		r.s.At(now+r.delay(), r.event(i))
	case 12: // the handle Rearm was given is stale afterwards
		old := r.h[i]
		r.rearm(i, max(now, r.due[i]+r.delay()-3))
		old.Cancel()
	case 13: // a dropped handle: Rearm of the zero Timer schedules afresh
		r.h[i] = Timer{}
		r.rearm(i, now+r.delay())
	}
}

func (r *rearmRun) snapshot() {
	st := rearmState{fired: len(r.log), steps: r.s.Steps(), pending: r.s.Pending(), now: r.s.Now()}
	for i, t := range r.h {
		if t.Stopped() {
			st.stopped[i/64] |= 1 << (i % 64)
		}
	}
	r.states = append(r.states, st)
}

func runRearmProgram(prog []byte, lazy bool) *rearmRun {
	r := &rearmRun{s: NewScheduler(), lazy: lazy, prog: prog, budget: 64}
	for len(r.prog) > 0 {
		r.op()
		r.snapshot()
	}
	r.budget = 64
	r.s.Run()
	r.snapshot()
	return r
}

// checkRearmProgram runs prog both ways and fails at the first op after
// which the runs differ.
func checkRearmProgram(t *testing.T, prog []byte) {
	t.Helper()
	got, want := runRearmProgram(prog, true), runRearmProgram(prog, false)
	for k := range want.states {
		if got.states[k] != want.states[k] {
			t.Fatalf("after op %d: Rearm %+v, Cancel+At %+v", k, got.states[k], want.states[k])
		}
	}
	for k := range want.log {
		if got.log[k] != want.log[k] {
			t.Fatalf("dispatch %d: Rearm ran %+v, Cancel+At ran %+v", k, got.log[k], want.log[k])
		}
	}
}

// TestRearmMatchesCancelAt runs random scheduler programs twice, once
// re-arming with Rearm and once with Cancel + At, and requires the
// same dispatch log (time, event id), Steps, Pending, clock and
// Stopped handles after every op. The programs mix same-time ties,
// re-arms to earlier, equal and later times, re-arms of fired,
// cancelled and zero timers and from an event's own callback, RunUntil
// bounds between a timer's old and new keys, Stop, and cancel bursts
// that compact the heap.
func TestRearmMatchesCancelAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 300; p++ {
		prog := make([]byte, 3*(50+rng.Intn(400)))
		rng.Read(prog)
		checkRearmProgram(t, prog)
	}
}

func FuzzSchedulerRearm(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 5, 0, 0, 0, 2, 0, 7, 0, 0, 0, 7, 0, 3, 8, 0})
	f.Add([]byte{9, 0, 1, 2, 3, 12, 5, 7, 10, 3, 12, 9, 1, 1, 8, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkRearmProgram(t, prog)
	})
}

// TestRearmInPlace pins the fast path itself: a pending timer pushed
// later keeps its slot and heap entry, leaves no cancelled entry, and
// is moved to its true key only when it reaches the root.
func TestRearmInPlace(t *testing.T) {
	s := NewScheduler()
	fired := time.Duration(-1)
	fn := func() { fired = s.Now() }
	tm := s.At(10, fn)
	slot := tm.slot
	for at := time.Duration(11); at <= 1000; at++ {
		old := tm
		tm = s.Rearm(tm, at, fn)
		if tm.slot != slot || len(s.heap) != 1 {
			t.Fatalf("re-arm to %v: slot %d (was %d), heap %d entries", at, tm.slot, slot, len(s.heap))
		}
		if !old.Stopped() || tm.Stopped() {
			t.Fatal("Rearm must leave the old handle stopped and the new one pending")
		}
	}
	s.RunUntil(500) // past the heap key, short of the true one
	if fired >= 0 || s.Steps() != 0 || s.Pending() != 1 || s.Now() != 500 {
		t.Fatalf("fired %v, steps %d, pending %d, now %v: the stale key ran", fired, s.Steps(), s.Pending(), s.Now())
	}
	if s.heap[0].at != 1000 {
		t.Fatalf("root key %v after settling, want 1000", s.heap[0].at)
	}
	if tm = s.Rearm(tm, 700, fn); len(s.heap) != 2 { // earlier: Cancel + At
		t.Fatalf("re-arm earlier left %d heap entries, want the cancelled one and the new one", len(s.heap))
	}
	s.Run()
	if fired != 700 || s.Steps() != 1 {
		t.Fatalf("fired at %v after %d steps, want 700 after 1", fired, s.Steps())
	}
}
