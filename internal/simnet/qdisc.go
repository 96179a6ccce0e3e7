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
	limit   int       // bytes; <=0 means DefaultFIFOLimit
	queue   []*Packet // queue[head:] waits; the prefix is spent and nil
	head    int
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
	if f.head > 0 && len(f.queue) == cap(f.queue) && f.head >= len(f.queue)/2 {
		// Full with at least half spent: slide the waiting packets down
		// rather than grow. (Less than half spent, append doubles the
		// array and the slide comes later, so the copy stays amortised.)
		n := copy(f.queue, f.queue[f.head:])
		clear(f.queue[n:])
		f.queue, f.head = f.queue[:n], 0
	}
	f.queue = append(f.queue, p) //meshvet:allow poolescape a queued packet is live; it reaches its terminal free point only after Dequeue
	f.backlog += p.Size
	return true
}

// Dequeue implements Qdisc.
func (f *FIFO) Dequeue() *Packet {
	if f.head == len(f.queue) {
		return nil
	}
	p := f.queue[f.head]
	f.queue[f.head] = nil
	f.head++
	if f.head == len(f.queue) {
		// Drained: start over at the front of the same array. Reslicing
		// to queue[1:] would give the array away one slot at a time, and
		// a NIC that mostly holds one packet would allocate per Enqueue.
		f.queue, f.head = f.queue[:0], 0
	}
	f.backlog -= p.Size
	return p
}

// Len implements Qdisc.
func (f *FIFO) Len() int { return len(f.queue) - f.head }

// Backlog implements Qdisc.
func (f *FIFO) Backlog() int { return f.backlog }

// Drops returns the number of packets dropped at enqueue.
func (f *FIFO) Drops() uint64 { return f.drops }
