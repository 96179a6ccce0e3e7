package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// HTBClass configures one class of an HTB qdisc.
type HTBClass struct {
	// Rate is the guaranteed rate in bits/s.
	Rate int64
	// Ceil caps the class when borrowing (bits/s). Zero means Ceil=Rate.
	Ceil int64
	// Prio orders borrowing: lower values borrow first.
	Prio int
	// Queue holds the class's packets; nil selects a default FIFO.
	Queue simnet.Qdisc
}

// HTB is a single-level hierarchical token bucket: each class is
// guaranteed its Rate, and spare capacity is lent out up to each class's
// Ceil, lower Prio first. It covers the configurations the paper's
// prototype needs (e.g. high=95% guaranteed/100% ceil, low=5%/100%).
type HTB struct {
	classes    []*htbClass
	classifier Classifier
	clock      Clock
	rrNext     int
}

type htbClass struct {
	cfg        HTBClass
	queue      simnet.Qdisc
	rateTokens float64
	ceilTokens float64
	last       time.Duration
	head       *simnet.Packet
}

// NewHTB builds an HTB qdisc with the given classes. The classifier's
// class indexes address the classes slice; out-of-range goes to the last
// class.
func NewHTB(classifier Classifier, clock Clock, classes ...HTBClass) *HTB {
	if len(classes) == 0 {
		panic("tc: HTB needs at least one class")
	}
	if clock == nil {
		panic("tc: HTB needs a clock")
	}
	h := &HTB{classifier: classifier, clock: clock}
	for _, c := range classes {
		if c.Rate <= 0 {
			panic("tc: HTB class rate must be positive")
		}
		if c.Ceil == 0 {
			c.Ceil = c.Rate
		}
		if c.Ceil < c.Rate {
			panic("tc: HTB ceil below rate")
		}
		q := c.Queue
		if q == nil {
			q = simnet.NewFIFO(0)
		}
		burst := float64(htbBurst)
		h.classes = append(h.classes, &htbClass{
			cfg: c, queue: q, rateTokens: burst, ceilTokens: burst,
		})
	}
	return h
}

// htbBurst is the per-class token bucket depth in bytes.
const htbBurst = 10 * simnet.MTU

func (c *htbClass) refill(now time.Duration) {
	if now <= c.last {
		return
	}
	dt := (now - c.last).Seconds()
	c.last = now
	c.rateTokens += float64(c.cfg.Rate) / 8 * dt
	c.ceilTokens += float64(c.cfg.Ceil) / 8 * dt
	if c.rateTokens > htbBurst {
		c.rateTokens = htbBurst
	}
	if c.ceilTokens > htbBurst {
		c.ceilTokens = htbBurst
	}
}

func (c *htbClass) peek() *simnet.Packet {
	if c.head == nil {
		c.head = c.queue.Dequeue() //meshvet:allow poolescape peeked head is still queue-owned until the scheduler emits it
	}
	return c.head
}

func (c *htbClass) take() *simnet.Packet {
	p := c.head
	c.head = nil
	size := float64(p.Size)
	c.rateTokens -= size // may go negative: borrowed bandwidth is "owed"
	c.ceilTokens -= size
	return p
}

// Enqueue implements simnet.Qdisc.
func (h *HTB) Enqueue(p *simnet.Packet) bool {
	i := h.classifier.Classify(p)
	if i < 0 || i >= len(h.classes) {
		i = len(h.classes) - 1
	}
	return h.classes[i].queue.Enqueue(p)
}

// Dequeue implements simnet.Qdisc. Guaranteed-rate service first
// (round-robin among classes within their Rate), then borrowing in Prio
// order up to Ceil.
func (h *HTB) Dequeue() *simnet.Packet {
	now := h.clock()
	for _, c := range h.classes {
		c.refill(now)
	}
	// Pass 1: guaranteed rate, round-robin for fairness among classes.
	n := len(h.classes)
	for off := 0; off < n; off++ {
		c := h.classes[(h.rrNext+off)%n]
		p := c.peek()
		if p == nil {
			continue
		}
		if c.rateTokens >= float64(p.Size) {
			h.rrNext = (h.rrNext + off + 1) % n
			return c.take()
		}
	}
	// Pass 2: borrow, lowest Prio value first, then declaration order.
	var best *htbClass
	for _, c := range h.classes {
		p := c.peek()
		if p == nil || c.ceilTokens < float64(p.Size) {
			continue
		}
		if best == nil || c.cfg.Prio < best.cfg.Prio {
			best = c
		}
	}
	if best != nil {
		return best.take()
	}
	return nil
}

// Len implements simnet.Qdisc.
func (h *HTB) Len() int {
	n := 0
	for _, c := range h.classes {
		n += c.queue.Len()
		if c.head != nil {
			n++
		}
	}
	return n
}

// Backlog implements simnet.Qdisc.
func (h *HTB) Backlog() int {
	n := 0
	for _, c := range h.classes {
		n += c.queue.Backlog()
		if c.head != nil {
			n += c.head.Size
		}
	}
	return n
}

// NextWake implements simnet.Waker: earliest time any backlogged class
// accumulates ceil tokens for its head packet.
func (h *HTB) NextWake(now time.Duration) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, c := range h.classes {
		c.refill(now)
		p := c.peek()
		if p == nil {
			continue
		}
		deficit := float64(p.Size) - c.ceilTokens
		var at time.Duration
		if deficit <= 0 {
			at = now
		} else {
			at = now + time.Duration(deficit*8/float64(c.cfg.Ceil)*float64(time.Second))
			if at <= now {
				at = now + time.Nanosecond
			}
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}
