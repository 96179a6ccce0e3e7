package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// Prio is a strict-priority classful qdisc: band 0 is always served
// before band 1, and so on — the discipline of `tc qdisc add ... prio`.
type Prio struct {
	bands     []simnet.Qdisc
	threshold simnet.Mark
	sentStats []uint64
}

// NewPrio builds a strict-priority qdisc over the given bands (band 0
// highest). A packet marked threshold or above goes to band 0, any
// other to the last band.
func NewPrio(threshold simnet.Mark, bands ...simnet.Qdisc) *Prio {
	if len(bands) == 0 {
		panic("tc: prio needs at least one band")
	}
	return &Prio{
		bands:     bands,
		threshold: threshold,
		sentStats: make([]uint64, len(bands)),
	}
}

// Sent returns packets dequeued from band i.
func (q *Prio) Sent(i int) uint64 { return q.sentStats[i] }

// Enqueue implements simnet.Qdisc.
func (q *Prio) Enqueue(p *simnet.Packet) bool {
	band := len(q.bands) - 1
	if p.Mark >= q.threshold {
		band = 0
	}
	return q.bands[band].Enqueue(p)
}

// Dequeue implements simnet.Qdisc: highest-priority non-empty eligible
// band wins.
func (q *Prio) Dequeue() *simnet.Packet {
	for i, b := range q.bands {
		if p := b.Dequeue(); p != nil {
			q.sentStats[i]++
			return p
		}
	}
	return nil
}

// Len implements simnet.Qdisc.
func (q *Prio) Len() int {
	n := 0
	for _, b := range q.bands {
		n += b.Len()
	}
	return n
}

// Backlog implements simnet.Qdisc.
func (q *Prio) Backlog() int {
	n := 0
	for _, b := range q.bands {
		n += b.Backlog()
	}
	return n
}

// NextWake implements simnet.Waker by delegating to shaped bands.
func (q *Prio) NextWake(now time.Duration) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, b := range q.bands {
		if w, ok := b.(simnet.Waker); ok {
			if at, ok := w.NextWake(now); ok && (!found || at < best) {
				best, found = at, true
			}
		}
	}
	return best, found
}
