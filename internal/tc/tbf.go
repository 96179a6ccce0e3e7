package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// TBF is a token-bucket filter: packets pass through an inner qdisc and
// are released only while tokens are available, shaping the output to
// Rate with bursts up to Burst bytes.
type TBF struct {
	rate  int64 // bits per second
	burst int64 // bytes
	inner simnet.Qdisc
	clock Clock

	tokens float64 // bytes
	last   time.Duration
	head   *simnet.Packet // dequeued from inner, waiting for tokens
}

// NewTBF shapes the inner qdisc to rate bits/s with the given byte
// burst. A nil inner selects a default FIFO. Burst must cover at least
// one MTU or full-size packets could never be released; smaller values
// are raised to one MTU.
func NewTBF(rate int64, burst int64, inner simnet.Qdisc, clock Clock) *TBF {
	if rate <= 0 {
		panic("tc: TBF rate must be positive")
	}
	if inner == nil {
		inner = simnet.NewFIFO(0)
	}
	if burst < simnet.MTU {
		burst = simnet.MTU
	}
	if clock == nil {
		panic("tc: TBF needs a clock")
	}
	return &TBF{rate: rate, burst: burst, inner: inner, clock: clock, tokens: float64(burst)}
}

func (q *TBF) refill(now time.Duration) {
	if now <= q.last {
		return
	}
	elapsed := now - q.last
	q.last = now
	if q.tokens >= float64(q.burst) {
		return // full: any refill would be capped back to burst
	}
	q.tokens += float64(q.rate) / 8 * elapsed.Seconds()
	if q.tokens > float64(q.burst) {
		q.tokens = float64(q.burst)
	}
}

// Enqueue implements simnet.Qdisc.
func (q *TBF) Enqueue(p *simnet.Packet) bool { return q.inner.Enqueue(p) }

// Dequeue implements simnet.Qdisc: returns the head packet if tokens
// cover it, nil otherwise.
func (q *TBF) Dequeue() *simnet.Packet {
	q.refill(q.clock())
	if q.head == nil {
		q.head = q.inner.Dequeue() //meshvet:allow poolescape peeked head is still queue-owned until tokens cover it
	}
	if q.head == nil {
		return nil
	}
	need := float64(q.head.Size)
	if q.tokens < need {
		return nil
	}
	q.tokens -= need
	p := q.head
	q.head = nil
	return p
}

// Len implements simnet.Qdisc.
func (q *TBF) Len() int {
	n := q.inner.Len()
	if q.head != nil {
		n++
	}
	return n
}

// Backlog implements simnet.Qdisc.
func (q *TBF) Backlog() int {
	n := q.inner.Backlog()
	if q.head != nil {
		n += q.head.Size
	}
	return n
}

// NextWake implements simnet.Waker: the time at which tokens suffice for
// the head packet.
func (q *TBF) NextWake(now time.Duration) (time.Duration, bool) {
	q.refill(now)
	if q.head == nil && q.inner.Len() == 0 {
		return 0, false
	}
	size := simnet.MTU
	if q.head != nil {
		size = q.head.Size
	}
	deficit := float64(size) - q.tokens
	if deficit <= 0 {
		return now, true
	}
	wait := time.Duration(deficit * 8 / float64(q.rate) * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	return now + wait, true
}
