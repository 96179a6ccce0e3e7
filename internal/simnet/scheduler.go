// Package simnet implements a deterministic discrete-event network
// simulator: a virtual clock with an event scheduler, and a packet-level
// model of links, NICs, and nodes connected into routed topologies.
//
// All simulated components run single-threaded on one Scheduler. Time is
// a time.Duration measured from the simulation epoch (t = 0). Components
// never read the wall clock, so a run is a pure function of its inputs
// and seeds: the same program produces byte-identical results on every
// machine.
package simnet

import (
	"fmt"
	"time"
)

// Scheduler is the simulation event loop. The zero value is not usable;
// call NewScheduler.
//
// Internally the scheduler keeps events in a pooled arena indexed by a
// 4-ary min-heap of (time, seq, slot) entries: scheduling allocates
// nothing in steady state (slots are recycled through a free list), and
// heap comparisons read keys stored inline in the heap array instead of
// chasing pointers into boxed interface values. Event order is
// a total order on (time, sequence number), so the heap's internal
// shape never influences dispatch order — a property the lazy
// cancellation and compaction below rely on.
type Scheduler struct {
	now   time.Duration
	arena []eventSlot // slot storage, recycled via free
	free  []int32     // free-list of arena slots
	heap  []heapEntry // 4-ary min-heap keyed by (at, seq)
	seq   uint64

	// live counts scheduled, non-cancelled events; cancelled events stay
	// in the heap (lazy deletion) until popped or compacted, so the
	// cancelled backlog is len(heap) - live.
	live    int
	stopped bool
	steps   uint64
}

// eventSlot is one pooled event. gen is the slot's reuse generation:
// it increments every time the slot is released (or re-armed in place),
// so a Timer handle held across recycling can detect that its event is
// gone and turn Cancel into a no-op instead of killing the unrelated
// event now in the slot. (at, seq) is the event's true ordering key;
// the slot's heap entry carries a key no later than it (see Rearm).
type eventSlot struct {
	fn  func()
	at  time.Duration
	seq uint32
	gen uint32
}

// heapEntry carries the ordering key inline so heap comparisons read
// contiguous heap memory instead of chasing pointers into the arena.
// The entry is kept to 16 bytes so a 4-ary node's children span one
// cache line; seq is a truncated sequence number compared with
// wraparound arithmetic (see less), which preserves FIFO order for
// same-time events as long as fewer than 2^31 events separate two
// coexisting ones — far beyond any pending-set this simulator reaches.
type heapEntry struct {
	at   time.Duration
	seq  uint32 // FIFO tie-break for same-time events
	slot int32
}

// compactMinHeap is the heap size below which compaction is never
// worth the rebuild; tiny heaps recycle cancelled slots quickly via
// normal pops.
const compactMinHeap = 64

// NewScheduler returns a scheduler with the clock at the simulation epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Steps returns the number of events executed so far. Useful for
// instrumentation and runaway detection in tests.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Timer is a handle to a scheduled event that can be cancelled. It is a
// small value; the zero Timer is valid and behaves as already stopped.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Cancel prevents the timer's function from running. Cancelling an
// already-fired or already-cancelled timer is a no-op, even if the
// underlying event slot has since been recycled for a different event.
func (t Timer) Cancel() {
	if t.s == nil {
		return
	}
	ev := &t.s.arena[t.slot]
	if ev.gen != t.gen || ev.fn == nil {
		return // fired, cancelled, or slot recycled
	}
	ev.fn = nil
	t.s.live--
	t.s.maybeCompact()
}

// Stopped reports whether the timer has fired or been cancelled.
func (t Timer) Stopped() bool {
	if t.s == nil {
		return true
	}
	ev := &t.s.arena[t.slot]
	return ev.gen != t.gen || ev.fn == nil
}

// At schedules fn to run at absolute simulated time at. Scheduling in the
// past panics: it would silently reorder causality.
func (s *Scheduler) At(at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("simnet: nil event function")
	}
	if at < s.now {
		panic(fmt.Sprintf("simnet: event scheduled in the past: %v < %v", at, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, eventSlot{})
		slot = int32(len(s.arena) - 1)
	}
	ev := &s.arena[slot]
	ev.fn, ev.at, ev.seq = fn, at, uint32(s.seq)
	s.push(heapEntry{at: at, seq: ev.seq, slot: slot})
	s.seq++
	s.live++
	return Timer{s: s, slot: slot, gen: ev.gen}
}

// Rearm is t.Cancel() followed by At(at, fn), and returns the new
// timer; t must not be used afterwards. Every event's (at, seq), the
// dispatch order, Steps and Pending are exactly those of Cancel + At.
//
// When t is pending and at is no earlier than its deadline, the event
// is pushed back in place: the slot records the new key, with seq
// reserved from the same counter At would use, and the heap entry
// stays put under its old, earlier key. When that stale entry reaches
// the root, it is re-keyed and sifted down without running anything.
// A timer re-armed far more often than it fires (a retransmission
// timeout pushed back by every ACK) thus costs no heap push and leaves
// no cancelled entry behind.
func (s *Scheduler) Rearm(t Timer, at time.Duration, fn func()) Timer {
	if t.s == s && fn != nil {
		ev := &s.arena[t.slot]
		if ev.gen == t.gen && ev.fn != nil && at >= ev.at {
			ev.fn, ev.at, ev.seq = fn, at, uint32(s.seq)
			s.seq++
			ev.gen++ // the old handle goes stale, as after Cancel
			return Timer{s: s, slot: t.slot, gen: ev.gen}
		}
	}
	t.Cancel()
	return s.At(at, fn)
}

// After schedules fn to run d after the current simulated time.
// Negative d is clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// releaseSlot returns a slot to the free list, bumping its generation
// so outstanding Timer handles to the old event become inert.
func (s *Scheduler) releaseSlot(slot int32) {
	ev := &s.arena[slot]
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, slot)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	if !s.settleRoot() {
		return false
	}
	s.dispatchRoot()
	return true
}

// settleRoot discards cancelled entries from the top of the heap and
// re-keys re-armed ones until the root is a live event under its true
// key, the next to run. It reports false when no events remain. Every
// arm takes a fresh seq, so an entry is current exactly when its seq
// is its slot's (modulo the 2^32 wrap less already assumes away).
func (s *Scheduler) settleRoot() bool {
	for len(s.heap) > 0 {
		e := s.heap[0]
		ev := &s.arena[e.slot]
		switch {
		case ev.fn == nil: // cancelled: recycle and keep looking
			s.popRoot()
			s.releaseSlot(e.slot)
		case e.seq != ev.seq: // re-armed later: move it to its true key
			s.heap[0] = heapEntry{at: ev.at, seq: ev.seq, slot: e.slot}
			s.siftDown(0)
		default:
			return true
		}
	}
	return false
}

// dispatchRoot pops the settled root and runs it.
func (s *Scheduler) dispatchRoot() {
	e := s.popRoot()
	ev := &s.arena[e.slot]
	s.now = e.at
	fn := ev.fn
	s.live--
	s.releaseSlot(e.slot)
	s.steps++
	fn()
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Events scheduled beyond t remain pending.
func (s *Scheduler) RunUntil(t time.Duration) {
	s.stopped = false
	for !s.stopped && s.settleRoot() && s.heap[0].at <= t {
		s.dispatchRoot()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events for d of simulated time from the current clock.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of scheduled (non-cancelled) events.
func (s *Scheduler) Pending() int { return s.live }

// maybeCompact rebuilds the heap once cancelled events outnumber live
// ones: long chaos runs cancel retry timers far faster than the heap
// pops them, and without compaction those slots pin arena memory until
// their (possibly far-future) deadlines surface at the root.
func (s *Scheduler) maybeCompact() {
	if n := len(s.heap); n >= compactMinHeap && n-s.live > n/2 {
		s.compact()
	}
}

// compact removes cancelled events from the heap and re-heapifies.
// Dispatch order is unaffected: (at, seq) is a total order, so any
// valid heap over the surviving slots pops identically (a re-armed
// entry keeps its earlier key and is re-keyed when it surfaces).
func (s *Scheduler) compact() {
	kept := s.heap[:0]
	for _, e := range s.heap {
		if s.arena[e.slot].fn != nil {
			kept = append(kept, e)
		} else {
			s.releaseSlot(e.slot)
		}
	}
	s.heap = kept
	if len(s.heap) < 2 {
		return
	}
	for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
		s.siftDown(i)
	}
}

// --- 4-ary min-heap over arena slots ---
//
// A 4-ary heap halves tree depth versus binary, trading a few extra
// comparisons per level for fewer cache-missing levels — the classic
// d-ary layout calendar-queue simulators and ns-3 use for timer wheels
// of this size.

func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	// Wraparound-aware sequence compare: correct whenever coexisting
	// same-time events are fewer than 2^31 apart in scheduling order.
	return int32(a.seq-b.seq) < 0
}

// lessIdx is less as a 0/1 integer, written so the compiler lowers each
// clause to a flag materialization (SETcc) instead of a conditional
// jump — the pop path selects among children with arithmetic on these.
func lessIdx(a, b heapEntry) int {
	lt := 0
	if a.at < b.at {
		lt = 1
	}
	eq := 0
	if a.at == b.at {
		eq = 1
	}
	sl := 0
	if int32(a.seq-b.seq) < 0 {
		sl = 1
	}
	return lt | (eq & sl)
}

func (s *Scheduler) push(e heapEntry) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
}

// popRoot removes and returns the minimum entry. The caller releases
// its slot.
//
// Deletion is bottom-up (Wegener): the root hole is walked down the
// min-child path all the way to a leaf using only child-vs-child
// comparisons, then the detached last element is dropped into the hole
// and sifted up. The classic top-down variant also compares the moved
// last element at every level, and since that element came from the
// bottom it nearly always sinks back to the bottom — making those
// comparisons pure overhead on the simulator's hottest loop.
func (s *Scheduler) popRoot() heapEntry {
	h := s.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n == 0 {
		return root
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		var best int
		if first+4 <= n {
			// Full node, unrolled and branch-free: heap order is
			// effectively random, so data-dependent branches here
			// mispredict constantly; lessIdx turns each selection into
			// arithmetic, and the two pairwise minima are independent,
			// so they pipeline instead of serializing.
			b0 := first + lessIdx(h[first+1], h[first])
			b1 := first + 2 + lessIdx(h[first+3], h[first+2])
			best = b0 + (b1-b0)*lessIdx(h[b1], h[b0])
		} else {
			best = first
			for c := first + 1; c < n; c++ {
				if less(h[c], h[best]) {
					best = c
				}
			}
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	s.siftUp(i)
	return root
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[best]) {
				best = c
			}
		}
		if !less(h[best], e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
