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
// Events run in (time, sequence number) order, a total order: every
// event draws its sequence number from one counter when it is
// scheduled. They wait in two lanes, each a 4-ary min-heap with its
// key stored inline (heap4).
//
//   - The timer lane holds everything scheduled through At, After and
//     Rearm. Its events are closures in a pooled arena (eventSlot plus
//     a free list), so scheduling allocates nothing in steady state,
//     and a heap entry is a 16-byte (time, seq, slot) record. Cancel is
//     lazy: a cancelled event stays in the heap until it surfaces or a
//     compaction drops it.
//   - The wire lane holds the two events a packet hop costs, a NIC
//     finishing serialisation and a packet arriving at the peer NIC, as
//     typed 32-byte wireEvent records. Nothing cancels a link event, so
//     it needs no closure, no arena slot and no Timer handle.
//
// Step runs whichever lane's root sorts first. Neither lane's internal
// shape, nor the split into lanes, can influence dispatch order.
type Scheduler struct {
	now   time.Duration
	arena []eventSlot    // slot storage, recycled via free
	free  []int32        // free-list of arena slots
	heap  heap4[int32]   // timer lane: arena slots
	wire  heap4[wireHop] // wire lane: link events
	seq   uint64

	// live counts scheduled, non-cancelled timers; cancelled timers stay
	// in the heap (lazy deletion) until popped or compacted, so the
	// cancelled backlog is len(heap) - live.
	live    int
	stopped bool
	steps   uint64

	// wireRootRan is set while a link event runs: its entry still sits
	// at the wire lane's root, and the first link event it schedules
	// takes its place (see dispatch).
	wireRootRan bool
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

// entry is one heap element: the ordering key inline, so comparisons
// read contiguous heap memory, then what the lane dispatches. seq is a
// truncated sequence number compared with wraparound arithmetic (see
// before), which preserves FIFO order for same-time events as long as
// fewer than 2^31 events separate two coexisting ones — far beyond any
// pending set this simulator reaches.
type entry[T any] struct {
	at  time.Duration
	seq uint32 // FIFO tie-break for same-time events
	val T
}

// heapEntry is a timer-lane entry; val is the event's arena slot. It is
// kept to 16 bytes so a 4-ary node's children span one cache line.
type heapEntry = entry[int32]

// wireEvent is a wire-lane entry, 32 bytes.
type wireEvent = entry[wireHop]

// wireHop is what a link event does: with a nil pkt, nic finishes
// serialising its txPacket (NIC.onTxDone); otherwise pkt arrives at
// nic (Node.receive).
type wireHop struct {
	nic *NIC
	pkt *Packet
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
	s.heap.push(heapEntry{at: at, seq: ev.seq, val: slot})
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

// afterWire schedules a link event d after the current simulated time,
// in the wire lane: with a nil pkt, nic's serialisation finishing,
// otherwise pkt arriving at nic. Negative d is clamped to zero, as in
// After, and the event draws its seq from the counter At uses.
func (s *Scheduler) afterWire(d time.Duration, nic *NIC, pkt *Packet) {
	if d < 0 {
		d = 0
	}
	e := wireEvent{at: s.now + d, seq: uint32(s.seq), val: wireHop{nic: nic, pkt: pkt}} //meshvet:allow poolescape the wire lane owns an arriving packet until Node.receive takes it
	s.seq++
	if s.wireRootRan {
		s.wireRootRan = false
		s.wire[0] = e
		s.wire.siftDown(0)
		return
	}
	s.wire.push(e)
}

// popRanRoot removes the wire root if it is a link event that has run
// and scheduled none to take its place.
func (s *Scheduler) popRanRoot() {
	if s.wireRootRan {
		s.wireRootRan = false
		s.wire.pop()
	}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	_, wire, ok := s.next()
	if ok {
		s.dispatch(wire)
	}
	return ok
}

// next finds the next event to run and returns its time, with wire
// true when it is the wire lane's root; ok is false when no events
// remain. On the way it discards cancelled entries from the top of the
// timer lane and re-keys re-armed ones, but only while the timer root
// sorts before the wire root: a timer entry's key is never later than
// its event's true key (see Rearm), so a wire root that sorts first
// runs first without settling the timer lane. Every arm takes a fresh
// seq, so a timer entry is current exactly when its seq is its slot's
// (modulo the 2^32 wrap before already assumes away).
func (s *Scheduler) next() (at time.Duration, wire, ok bool) {
	s.popRanRoot() // a Step from inside a link event
	for len(s.heap) > 0 {
		e := s.heap[0]
		if len(s.wire) > 0 && before(s.wire[0].at, s.wire[0].seq, e.at, e.seq) {
			return s.wire[0].at, true, true
		}
		ev := &s.arena[e.val]
		switch {
		case ev.fn == nil: // cancelled: recycle and keep looking
			s.heap.pop()
			s.releaseSlot(e.val)
		case e.seq != ev.seq: // re-armed later: move it to its true key
			s.heap[0] = heapEntry{at: ev.at, seq: ev.seq, val: e.val}
			s.heap.siftDown(0)
		default:
			return e.at, false, true
		}
	}
	if len(s.wire) > 0 {
		return s.wire[0].at, true, true
	}
	return 0, false, false
}

// dispatch runs the root next chose and removes it from its lane.
func (s *Scheduler) dispatch(wire bool) {
	s.steps++
	if wire {
		// The entry stays at the root while it runs: when the handler
		// schedules a link event, as most do, that event replaces it
		// and sifts down once, where a pop and a push would each walk
		// the heap.
		e := s.wire[0]
		s.now = e.at
		s.wireRootRan = true
		if e.val.pkt == nil {
			e.val.nic.onTxDone()
		} else {
			e.val.nic.node.receive(e.val.pkt, e.val.nic)
		}
		s.popRanRoot()
		return
	}
	e := s.heap.pop()
	ev := &s.arena[e.val]
	s.now = e.at
	fn := ev.fn
	s.live--
	s.releaseSlot(e.val)
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
	for !s.stopped {
		at, wire, ok := s.next()
		if !ok || at > t {
			break
		}
		s.dispatch(wire)
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
func (s *Scheduler) Pending() int {
	n := s.live + len(s.wire)
	if s.wireRootRan {
		n--
	}
	return n
}

// maybeCompact rebuilds the timer lane once cancelled timers outnumber
// live ones: long chaos runs cancel retry timers far faster than the
// heap pops them, and without compaction those slots pin arena memory
// until their (possibly far-future) deadlines surface at the root.
func (s *Scheduler) maybeCompact() {
	if n := len(s.heap); n >= compactMinHeap && n-s.live > n/2 {
		s.compact()
	}
}

// compact removes cancelled timers from the heap and re-heapifies.
// Dispatch order is unaffected: (at, seq) is a total order, so any
// valid heap over the surviving slots pops identically (a re-armed
// entry keeps its earlier key and is re-keyed when it surfaces).
func (s *Scheduler) compact() {
	kept := s.heap[:0]
	for _, e := range s.heap {
		if s.arena[e.val].fn != nil {
			kept = append(kept, e)
		} else {
			s.releaseSlot(e.val)
		}
	}
	s.heap = kept
	if len(s.heap) < 2 {
		return
	}
	for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
		s.heap.siftDown(i)
	}
}

// --- 4-ary min-heap, shared by both lanes ---
//
// A 4-ary heap halves tree depth versus binary, trading a few extra
// comparisons per level for fewer cache-missing levels — the classic
// d-ary layout calendar-queue simulators and ns-3 use for timer wheels
// of this size.

// heap4 is a 4-ary min-heap of entries ordered on (at, seq).
type heap4[T any] []entry[T]

// before orders two keys: earlier time first, then the earlier seq.
func before(aAt time.Duration, aSeq uint32, bAt time.Duration, bSeq uint32) bool {
	if aAt != bAt {
		return aAt < bAt
	}
	// Wraparound-aware sequence compare: correct whenever coexisting
	// same-time events are fewer than 2^31 apart in scheduling order.
	return int32(aSeq-bSeq) < 0
}

// less and lessIdx take entries by value, so a sift keeps the moving
// entry in registers; passing pointers spilled it to memory and
// measured 10-35 % slower on the timer-lane benchmarks.
func less[T any](a, b entry[T]) bool { return before(a.at, a.seq, b.at, b.seq) }

// lessIdx is less as a 0/1 integer, written so the compiler lowers each
// clause to a flag materialization (SETcc) instead of a conditional
// jump — the pop path selects among children with arithmetic on these.
func lessIdx[T any](a, b entry[T]) int {
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

func (h *heap4[T]) push(e entry[T]) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the minimum entry.
//
// Deletion is bottom-up (Wegener): the root hole is walked down the
// min-child path all the way to a leaf using only child-vs-child
// comparisons, then the detached last element is dropped into the hole
// and sifted up. The classic top-down variant also compares the moved
// last element at every level, and since that element came from the
// bottom it nearly always sinks back to the bottom — making those
// comparisons pure overhead on the simulator's hottest loop.
func (h *heap4[T]) pop() entry[T] {
	a := *h
	root := a[0]
	n := len(a) - 1
	last := a[n]
	*h = a[:n]
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
			b0 := first + lessIdx(a[first+1], a[first])
			b1 := first + 2 + lessIdx(a[first+3], a[first+2])
			best = b0 + (b1-b0)*lessIdx(a[b1], a[b0])
		} else {
			best = first
			for c := first + 1; c < n; c++ {
				if less(a[c], a[best]) {
					best = c
				}
			}
		}
		a[i] = a[best]
		i = best
	}
	a[i] = last
	a[:n].siftUp(i)
	return root
}

func (h heap4[T]) siftUp(i int) {
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

func (h heap4[T]) siftDown(i int) {
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
