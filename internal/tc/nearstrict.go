package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// NearStrictConfig parameterizes the paper's §4.3 discipline: high-mark
// packets get strict priority over the rest, but are capped at a share
// of the link rate so the low class cannot starve completely.
type NearStrictConfig struct {
	// LinkRate is the rate of the link the qdisc feeds, bits/s.
	LinkRate int64
	// HighShare is the fraction of LinkRate granted to the high class,
	// e.g. 0.95 for the paper's "up to 95% of bandwidth". Values outside
	// (0, 1] are rejected.
	HighShare float64
}

// NearStrict is "nearly-strict prioritization (up to HighShare of
// bandwidth)": two FIFOs of the default limit, the high one behind a
// token bucket filled at HighShare of the link rate with a burst of 20
// MTUs. Packets marked simnet.MarkHigh or above are the high class. The
// high FIFO is served first whenever the bucket covers its head packet;
// the low FIFO gets the line whenever the high one is empty or
// throttled.
type NearStrict struct {
	high, low *simnet.FIFO
	sent      [2]uint64 // dequeued packets: [0] high, [1] low

	// The high class's token bucket.
	rate   int64 // bits per second
	clock  Clock
	tokens float64 // bytes
	last   time.Duration
	head   *simnet.Packet // dequeued from high, waiting for tokens
}

// highBurst is the high class's bucket depth in bytes.
const highBurst = 20 * simnet.MTU

// NewNearStrict builds the discipline for a link of cfg.LinkRate on the
// given clock (pass scheduler.Now).
func NewNearStrict(cfg NearStrictConfig, clock Clock) *NearStrict {
	if cfg.HighShare <= 0 || cfg.HighShare > 1 {
		panic("tc: NearStrict HighShare must be in (0,1]")
	}
	rate := int64(float64(cfg.LinkRate) * cfg.HighShare)
	if rate <= 0 {
		panic("tc: NearStrict needs a positive link rate")
	}
	if clock == nil {
		panic("tc: NearStrict needs a clock")
	}
	return &NearStrict{
		high: simnet.NewFIFO(0), low: simnet.NewFIFO(0),
		rate: rate, clock: clock, tokens: highBurst,
	}
}

// Sent returns the packets dequeued from class 0 (high) or 1 (low).
func (q *NearStrict) Sent(class int) uint64 { return q.sent[class] }

func (q *NearStrict) refill(now time.Duration) {
	if now <= q.last {
		return
	}
	elapsed := now - q.last
	q.last = now
	if q.tokens >= highBurst {
		return // full: any refill would be capped back to highBurst
	}
	q.tokens += float64(q.rate) / 8 * elapsed.Seconds()
	if q.tokens > highBurst {
		q.tokens = highBurst
	}
}

// Enqueue implements simnet.Qdisc.
func (q *NearStrict) Enqueue(p *simnet.Packet) bool {
	if p.Mark >= simnet.MarkHigh {
		return q.high.Enqueue(p)
	}
	return q.low.Enqueue(p)
}

// Dequeue implements simnet.Qdisc: the high class's head packet if the
// bucket covers it, else the low class's head.
func (q *NearStrict) Dequeue() *simnet.Packet {
	q.refill(q.clock())
	if q.head == nil {
		q.head = q.high.Dequeue() //meshvet:allow poolescape peeked head is still queue-owned until tokens cover it
	}
	if q.head != nil && q.tokens >= float64(q.head.Size) {
		q.tokens -= float64(q.head.Size)
		p := q.head
		q.head = nil
		q.sent[0]++
		return p
	}
	p := q.low.Dequeue()
	if p != nil {
		q.sent[1]++
	}
	return p
}

// Len implements simnet.Qdisc.
func (q *NearStrict) Len() int {
	n := q.high.Len() + q.low.Len()
	if q.head != nil {
		n++
	}
	return n
}

// Backlog implements simnet.Qdisc.
func (q *NearStrict) Backlog() int {
	n := q.high.Backlog() + q.low.Backlog()
	if q.head != nil {
		n += q.head.Size
	}
	return n
}

// NextWake implements simnet.Waker: the time at which tokens suffice for
// the high class's head packet.
func (q *NearStrict) NextWake(now time.Duration) (time.Duration, bool) {
	q.refill(now)
	if q.head == nil && q.high.Len() == 0 {
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
