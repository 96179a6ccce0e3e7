package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// Prio is a strict-priority classful qdisc: band 0 is always served
// before band 1, and so on — the discipline of `tc qdisc add ... prio`.
type Prio struct {
	bands      []simnet.Qdisc
	classifier Classifier
	sentStats  []uint64
}

// NewPrio builds a strict-priority qdisc over the given bands (band 0
// highest). The classifier's class indexes select bands; out-of-range
// classes go to the last band.
func NewPrio(classifier Classifier, bands ...simnet.Qdisc) *Prio {
	if len(bands) == 0 {
		panic("tc: prio needs at least one band")
	}
	return &Prio{
		bands:      bands,
		classifier: classifier,
		sentStats:  make([]uint64, len(bands)),
	}
}

// Sent returns packets dequeued from band i.
func (q *Prio) Sent(i int) uint64 { return q.sentStats[i] }

// Enqueue implements simnet.Qdisc.
func (q *Prio) Enqueue(p *simnet.Packet) bool {
	band := q.classifier.Classify(p)
	if band < 0 || band >= len(q.bands) {
		band = len(q.bands) - 1
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
