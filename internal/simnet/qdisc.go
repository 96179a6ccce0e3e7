package simnet

import "time"

// Qdisc is a queueing discipline attached to a NIC's egress. The NIC
// enqueues outbound packets and pulls the next packet to serialize
// whenever the link becomes free.
//
// Implementations beyond the basic FIFO live in internal/tc.
type Qdisc interface {
	// Enqueue accepts a packet or drops it (returns false), e.g. when a
	// byte limit is exceeded.
	Enqueue(p *Packet) bool
	// Dequeue returns the next packet to transmit, or nil if none is
	// eligible right now.
	Dequeue() *Packet
	// Len returns the number of queued packets.
	Len() int
	// Backlog returns the queued bytes.
	Backlog() int
}

// Waker is an optional Qdisc extension for disciplines that can hold
// eligible packets until a future time (e.g. token-bucket shapers).
// After a nil Dequeue, the NIC asks for the next time a packet may
// become eligible and schedules a retry.
type Waker interface {
	// NextWake returns the earliest absolute time at which Dequeue may
	// return a packet, and whether such a time exists.
	NextWake(now time.Duration) (time.Duration, bool)
}

// FIFO is a byte-bounded droptail queue, the default qdisc on every NIC.
type FIFO struct {
	limit   int // bytes; <=0 means DefaultFIFOLimit
	queue   Queue[*Packet]
	backlog int
	drops   uint64
}

// DefaultFIFOLimit is the byte limit of a zero-configured FIFO,
// comparable to a typical 1000-packet txqueuelen of MTU-sized frames.
const DefaultFIFOLimit = 1000 * MTU

// NewFIFO returns a droptail FIFO holding at most limitBytes of packets.
// limitBytes <= 0 selects DefaultFIFOLimit.
func NewFIFO(limitBytes int) *FIFO {
	if limitBytes <= 0 {
		limitBytes = DefaultFIFOLimit
	}
	return &FIFO{limit: limitBytes}
}

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(p *Packet) bool {
	if f.limit == 0 {
		f.limit = DefaultFIFOLimit
	}
	if f.backlog+p.Size > f.limit {
		f.drops++
		return false
	}
	f.queue.Push(p) //meshvet:allow poolescape a queued packet is live; it reaches its terminal free point only after Dequeue
	f.backlog += p.Size
	return true
}

// Dequeue implements Qdisc.
func (f *FIFO) Dequeue() *Packet {
	if f.queue.Len() == 0 {
		return nil
	}
	p := f.queue.Pop()
	f.backlog -= p.Size
	return p
}

// Len implements Qdisc.
func (f *FIFO) Len() int { return f.queue.Len() }

// Backlog implements Qdisc.
func (f *FIFO) Backlog() int { return f.backlog }

// Drops returns the number of packets dropped at enqueue.
func (f *FIFO) Drops() uint64 { return f.drops }
