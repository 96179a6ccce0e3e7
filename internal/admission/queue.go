package admission

import (
	"time"

	"meshlayer/internal/simnet"
)

// QueueConfig bounds the two-class queue and tunes its CoDel-style
// delay shedding. Zero fields select the defaults.
type QueueConfig struct {
	// Limit caps the total queued requests across both classes
	// (default 256). An LS arrival to a full queue displaces the
	// newest queued LI request; only when no LI request remains is
	// the LS arrival itself shed.
	Limit int
	// Target is the LI class's sojourn-time target (default 5ms).
	Target time.Duration
	// LSTarget is the LS class's sojourn-time target (default
	// 20*Target) — the "last resort" threshold.
	LSTarget time.Duration
	// Interval is how long a class's delay must stay above its target
	// before shedding starts (default 100ms).
	Interval time.Duration
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.Limit <= 0 {
		c.Limit = 256
	}
	if c.Target <= 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.LSTarget <= 0 {
		c.LSTarget = 20 * c.Target
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	return c
}

// codelState is the per-class delay-shedding state: the CoDel trigger
// ("sojourn above target continuously for an interval") with a
// drain-to-target drop law — once triggered, queued requests are shed
// until the head's sojourn falls back under the target. Shedding a
// request is a cheap fast-fail (unlike dropping a packet), so draining
// promptly beats CoDel's gentler sqrt pacing here.
type codelState struct {
	// firstAbove is when shedding would begin if the sojourn stays
	// above target (0 = currently below target).
	firstAbove time.Duration
	// sheds counts requests shed by the delay law (telemetry/tests).
	sheds uint64
}

// Queue is the bounded two-class priority queue: LS is always served
// before LI, LI is shed first under pressure. Not safe for concurrent
// use — the simulator is single-threaded (see metrics.Registry for the
// shared invariant).
type Queue struct {
	cfg   QueueConfig
	q     [numClasses]simnet.Queue[Item]
	codel [numClasses]codelState

	shedFull     uint64
	shedDeadline uint64
}

// NewQueue returns an empty queue with defaults filled.
func NewQueue(cfg QueueConfig) *Queue {
	return &Queue{cfg: cfg.withDefaults()}
}

// Len returns the total queued requests.
func (q *Queue) Len() int {
	n := 0
	for c := Class(0); c < numClasses; c++ {
		n += q.Depth(c)
	}
	return n
}

// Depth returns the queued requests of one class.
func (q *Queue) Depth(c Class) int { return q.q[c].Len() }

// ShedCounts reports cumulative sheds by cause (delay, full, deadline).
func (q *Queue) ShedCounts() (delay, full, deadline uint64) {
	return q.codel[LS].sheds + q.codel[LI].sheds, q.shedFull, q.shedDeadline
}

// Push enqueues the item, shedding as needed to respect the bound. It
// returns false when the pushed item itself was shed.
func (q *Queue) Push(it Item, now time.Duration) bool {
	if it.expired(now) {
		q.shedDeadline++
		it.Shed(ShedDeadline)
		return false
	}
	if q.Len() >= q.cfg.Limit {
		// Full: displace the newest LI request for an LS arrival (LI
		// sheds first); otherwise shed the arrival itself.
		if it.Class == LS && q.Depth(LI) > 0 {
			tail := q.q[LI].Remove(q.Depth(LI) - 1)
			q.shedFull++
			tail.Shed(ShedQueueFull)
		} else {
			q.shedFull++
			it.Shed(ShedQueueFull)
			return false
		}
	}
	q.q[it.Class].Push(it)
	return true
}

// Pop dequeues the next servable request: LS strictly before LI, with
// expired items shed and the per-class delay law applied. It returns
// false when nothing remains to serve.
func (q *Queue) Pop(now time.Duration) (Item, bool) {
	for c := Class(0); c < numClasses; c++ {
		for q.Depth(c) > 0 {
			it := q.q[c].Pop()
			if it.expired(now) {
				q.shedDeadline++
				it.Shed(ShedDeadline)
				continue
			}
			sojourn := now - it.Enqueued
			st := &q.codel[c]
			target := q.cfg.Target
			if c == LS {
				target = q.cfg.LSTarget
			}
			if sojourn < target {
				st.firstAbove = 0
				return it, true
			}
			if st.firstAbove == 0 {
				// First sojourn above target: arm the interval but
				// still serve — transient bursts must not shed.
				st.firstAbove = now + q.cfg.Interval
				return it, true
			}
			if now < st.firstAbove {
				return it, true
			}
			// Above target for a full interval: shed and keep draining
			// until the head is back under target.
			st.sheds++
			it.Shed(ShedQueueDelay)
		}
	}
	return Item{}, false
}
