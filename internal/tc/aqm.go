package tc

import (
	"math"
	"math/rand"
	"time"

	"meshlayer/internal/simnet"
)

// RED is Random Early Detection: as the average queue grows between
// redMin and redMax bytes, packets are dropped with rising probability,
// signalling congestion to loss-based transports before the queue
// overflows (Floyd & Jacobson 1993).
type RED struct {
	rng        *rand.Rand
	fifo       *simnet.FIFO
	avg        float64
	count      int // packets since last early drop
	earlyDrops uint64
	hardDrops  uint64
}

// RED's early-drop region of the average queue, its hard byte cap, its
// drop probability at redMax, and the EWMA weight of its average queue.
const (
	redMin   = 100 * simnet.MTU
	redMax   = 400 * simnet.MTU
	redLimit = 4 * redMax
	redMaxP  = 0.1
	redWq    = 0.002
)

// NewRED builds a RED qdisc whose drop randomness is drawn from seed.
func NewRED(seed int64) *RED {
	return &RED{rng: rand.New(rand.NewSource(seed)), fifo: simnet.NewFIFO(redLimit)}
}

// EarlyDrops returns probabilistic drops; HardDrops overflow drops.
func (q *RED) EarlyDrops() uint64 { return q.earlyDrops }

// HardDrops returns drops due to the hard byte limit.
func (q *RED) HardDrops() uint64 { return q.hardDrops }

// Enqueue implements simnet.Qdisc.
func (q *RED) Enqueue(p *simnet.Packet) bool {
	q.avg = (1-redWq)*q.avg + redWq*float64(q.fifo.Backlog())
	// The hard limit is the FIFO's own, but it is checked here first: an
	// overflow must not consume an early-drop draw.
	if q.fifo.Backlog()+p.Size > redLimit {
		q.hardDrops++
		return false
	}
	switch {
	case q.avg < redMin:
		q.count = 0
	case q.avg >= redMax:
		q.earlyDrops++
		q.count = 0
		return false
	default:
		// Linear ramp of drop probability, with the classic count
		// correction spreading drops out.
		pb := redMaxP * (q.avg - redMin) / (redMax - redMin)
		q.count++
		pa := pb / math.Max(1e-9, 1-float64(q.count)*pb)
		if pa >= 1 || q.rng.Float64() < pa {
			q.earlyDrops++
			q.count = 0
			return false
		}
	}
	return q.fifo.Enqueue(p)
}

// Dequeue implements simnet.Qdisc.
func (q *RED) Dequeue() *simnet.Packet { return q.fifo.Dequeue() }

// Len implements simnet.Qdisc.
func (q *RED) Len() int { return q.fifo.Len() }

// Backlog implements simnet.Qdisc.
func (q *RED) Backlog() int { return q.fifo.Backlog() }

// CoDel is Controlled Delay AQM (Nichols & Jacobson 2012): it tracks
// each packet's sojourn time and, once the minimum sojourn over an
// interval exceeds the target, drops at deques with a rate that
// increases as the square root of the drop count. The hard byte cap is
// simnet.DefaultFIFOLimit.
type CoDel struct {
	clock Clock
	fifo  *simnet.FIFO // enforces the hard byte limit

	dropping  bool
	firstTime time.Duration // when sojourn first exceeded target
	dropNext  time.Duration
	dropCount int
	drops     uint64
}

// CoDel's acceptable standing sojourn time and its measurement window.
const (
	codelTarget   = 5 * time.Millisecond
	codelInterval = 100 * time.Millisecond
)

// NewCoDel builds a CoDel qdisc on the given clock.
func NewCoDel(clock Clock) *CoDel {
	if clock == nil {
		panic("tc: CoDel needs a clock")
	}
	return &CoDel{clock: clock, fifo: simnet.NewFIFO(0)}
}

// Drops returns AQM drops (not counting hard-limit rejections).
func (q *CoDel) Drops() uint64 { return q.drops }

// Enqueue implements simnet.Qdisc.
func (q *CoDel) Enqueue(p *simnet.Packet) bool {
	p.EnqueuedAt = q.clock()
	return q.fifo.Enqueue(p)
}

// Dequeue implements simnet.Qdisc with the CoDel state machine.
func (q *CoDel) Dequeue() *simnet.Packet {
	now := q.clock()
	for p := q.fifo.Dequeue(); p != nil; p = q.fifo.Dequeue() {
		sojourn := now - p.EnqueuedAt
		if sojourn < codelTarget || q.fifo.Backlog() < 2*simnet.MTU {
			// Below target: leave drop state.
			q.dropping = false
			q.firstTime = 0
			return p
		}
		// Above target.
		if !q.dropping {
			if q.firstTime == 0 {
				q.firstTime = now + codelInterval
				return p
			}
			if now < q.firstTime {
				return p
			}
			// Sojourn exceeded target for a whole interval: start
			// dropping.
			q.dropping = true
			q.dropCount = 1
			q.drops++
			q.dropNext = now + codelInterval
			continue // drop p, deliver the next packet
		}
		if now >= q.dropNext {
			q.dropCount++
			q.drops++
			q.dropNext = now + time.Duration(float64(codelInterval)/math.Sqrt(float64(q.dropCount)))
			continue // drop p
		}
		return p
	}
	return nil
}

// Len implements simnet.Qdisc.
func (q *CoDel) Len() int { return q.fifo.Len() }

// Backlog implements simnet.Qdisc.
func (q *CoDel) Backlog() int { return q.fifo.Backlog() }
