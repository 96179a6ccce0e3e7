package tc

import (
	"meshlayer/internal/simnet"
)

// DRR is a deficit-round-robin fair queueing discipline: each class is
// visited in turn and may send up to its accumulated quantum of bytes.
type DRR struct {
	classes    []*drrClass
	classifier Classifier
	active     []int // round-robin order of backlogged classes
	cursor     int
}

type drrClass struct {
	quantum int
	deficit int
	queue   simnet.Qdisc
	head    *simnet.Packet
	active  bool
	visited bool // quantum already granted for the current visit
}

// NewDRR builds a DRR qdisc with one class per quantum (bytes served per
// round). Quanta should be at least one MTU.
func NewDRR(classifier Classifier, quanta ...int) *DRR {
	if len(quanta) == 0 {
		panic("tc: DRR needs at least one class")
	}
	d := &DRR{classifier: classifier}
	for _, q := range quanta {
		if q < simnet.MTU {
			q = simnet.MTU
		}
		d.classes = append(d.classes, &drrClass{quantum: q, queue: simnet.NewFIFO(0)})
	}
	return d
}

// Enqueue implements simnet.Qdisc.
func (d *DRR) Enqueue(p *simnet.Packet) bool {
	i := d.classifier.Classify(p)
	if i < 0 || i >= len(d.classes) {
		i = len(d.classes) - 1
	}
	c := d.classes[i]
	if !c.queue.Enqueue(p) {
		return false
	}
	if !c.active {
		c.active = true
		d.active = append(d.active, i)
	}
	return true
}

// Dequeue implements simnet.Qdisc. The quantum is granted once per
// visit; a class is serviced while its deficit covers the head packet,
// then the scan moves on, carrying the remainder to the next round.
func (d *DRR) Dequeue() *simnet.Packet {
	visits := 0
	for len(d.active) > 0 {
		if d.cursor >= len(d.active) {
			d.cursor = 0
		}
		idx := d.active[d.cursor]
		c := d.classes[idx]
		if c.head == nil {
			c.head = c.queue.Dequeue() //meshvet:allow poolescape peeked head is still queue-owned until the scheduler emits it
		}
		if c.head == nil {
			// Class drained: deactivate and forfeit the deficit.
			c.active = false
			c.visited = false
			c.deficit = 0
			d.active = append(d.active[:d.cursor], d.active[d.cursor+1:]...)
			continue
		}
		if !c.visited {
			c.visited = true
			c.deficit += c.quantum
		}
		if c.deficit >= c.head.Size {
			p := c.head
			c.head = nil
			c.deficit -= p.Size
			return p
		}
		// Deficit exhausted for this visit: move to the next class.
		c.visited = false
		d.cursor++
		visits++
		if visits > len(d.classes) {
			// All backlogged classes short of deficit in one sweep
			// cannot happen (the grant covers at least one MTU), but
			// guard against pathological packet sizes.
			return nil
		}
	}
	return nil
}

// Len implements simnet.Qdisc.
func (d *DRR) Len() int {
	n := 0
	for _, c := range d.classes {
		n += c.queue.Len()
		if c.head != nil {
			n++
		}
	}
	return n
}

// Backlog implements simnet.Qdisc.
func (d *DRR) Backlog() int {
	n := 0
	for _, c := range d.classes {
		n += c.queue.Backlog()
		if c.head != nil {
			n += c.head.Size
		}
	}
	return n
}
