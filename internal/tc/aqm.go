package tc

import (
	"math"
	"math/rand"
	"time"

	"meshlayer/internal/simnet"
)

// RED is Random Early Detection: as the average queue grows between
// MinBytes and MaxBytes, packets are dropped with rising probability,
// signalling congestion to loss-based transports before the queue
// overflows (Floyd & Jacobson 1993).
type RED struct {
	min, max   int
	limit      int
	rng        *rand.Rand
	fifo       *simnet.FIFO
	avg        float64
	count      int // packets since last early drop
	earlyDrops uint64
	hardDrops  uint64
}

// REDConfig parameterizes NewRED.
type REDConfig struct {
	// MinBytes / MaxBytes bound the early-drop region of the average
	// queue length.
	MinBytes, MaxBytes int
	// LimitBytes is the hard queue cap. Zero selects 4*MaxBytes.
	LimitBytes int
	// Seed drives the drop randomness.
	Seed int64
}

// RED's drop probability at MaxBytes, and the EWMA weight of its average
// queue.
const (
	redMaxP = 0.1
	redWq   = 0.002
)

// NewRED builds a RED qdisc.
func NewRED(cfg REDConfig) *RED {
	if cfg.MinBytes <= 0 || cfg.MaxBytes <= cfg.MinBytes {
		panic("tc: RED needs 0 < MinBytes < MaxBytes")
	}
	if cfg.LimitBytes == 0 {
		cfg.LimitBytes = 4 * cfg.MaxBytes
	}
	return &RED{
		min: cfg.MinBytes, max: cfg.MaxBytes, limit: cfg.LimitBytes,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		fifo: simnet.NewFIFO(cfg.LimitBytes),
	}
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
	if q.fifo.Backlog()+p.Size > q.limit {
		q.hardDrops++
		return false
	}
	switch {
	case q.avg < float64(q.min):
		q.count = 0
	case q.avg >= float64(q.max):
		q.earlyDrops++
		q.count = 0
		return false
	default:
		// Linear ramp of drop probability, with the classic count
		// correction spreading drops out.
		pb := redMaxP * (q.avg - float64(q.min)) / float64(q.max-q.min)
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
	target   time.Duration
	interval time.Duration
	clock    Clock
	fifo     *simnet.FIFO // enforces the hard byte limit

	dropping  bool
	firstTime time.Duration // when sojourn first exceeded target
	dropNext  time.Duration
	dropCount int
	drops     uint64
}

// CoDelConfig parameterizes NewCoDel.
type CoDelConfig struct {
	// Target is the acceptable standing sojourn time (default 5ms).
	Target time.Duration
	// Interval is the measurement window (default 100ms).
	Interval time.Duration
}

// NewCoDel builds a CoDel qdisc on the given clock.
func NewCoDel(cfg CoDelConfig, clock Clock) *CoDel {
	if clock == nil {
		panic("tc: CoDel needs a clock")
	}
	if cfg.Target == 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval == 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	return &CoDel{target: cfg.Target, interval: cfg.Interval, clock: clock, fifo: simnet.NewFIFO(0)}
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
		if sojourn < q.target || q.fifo.Backlog() < 2*simnet.MTU {
			// Below target: leave drop state.
			q.dropping = false
			q.firstTime = 0
			return p
		}
		// Above target.
		if !q.dropping {
			if q.firstTime == 0 {
				q.firstTime = now + q.interval
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
			q.dropNext = now + q.interval
			continue // drop p, deliver the next packet
		}
		if now >= q.dropNext {
			q.dropCount++
			q.drops++
			q.dropNext = now + time.Duration(float64(q.interval)/math.Sqrt(float64(q.dropCount)))
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
