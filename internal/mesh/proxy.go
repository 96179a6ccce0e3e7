package mesh

import (
	"time"

	"meshlayer/internal/httpsim"
)

// proxyKind names which sidecar traversal a work item is.
type proxyKind uint8

const (
	// proxyInbound: a request entering its server's sidecar (inbound.serve).
	proxyInbound proxyKind = iota
	// proxyOutbound: a call leaving its client's sidecar (call.route).
	proxyOutbound
	// proxyResponse: a response leaving its server's sidecar (inbound.reply).
	proxyResponse
)

// proxyWork is one sidecar traversal waiting out its proxy delay. It
// completes at at; seq orders traversals that complete at the same
// instant by when they were queued.
type proxyWork struct {
	at   time.Duration
	seq  uint64
	kind proxyKind
	call *call
	in   inbound
	resp *httpsim.Response
}

func (w *proxyWork) before(o *proxyWork) bool {
	if w.at != o.at {
		return w.at < o.at
	}
	return w.seq < o.seq
}

// proxyQueue is a binary min-heap of traversals on (at, seq).
type proxyQueue []proxyWork

func (q *proxyQueue) push(w proxyWork) {
	*q = append(*q, w)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *proxyQueue) pop() proxyWork {
	h := *q
	w := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = proxyWork{} // the array outlives the item: drop its pointers
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].before(&h[m]) {
			m = l
		}
		if r := l + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return w
}

// traverse queues one sidecar traversal. It completes after a fresh
// proxy delay, through the scheduler event it arms for the mesh's one
// bound proxyDone. Every traversal arms one such event as it queues,
// and the scheduler fires events in (time, scheduling order), so the
// k-th proxyDone to fire finds its own traversal at the head of the
// queue: the order and the rng draws are those of one timer per
// traversal.
func (m *Mesh) traverse(w proxyWork) {
	d := m.proxyDelay()
	w.at, w.seq = m.sched.Now()+d, m.proxySeq
	m.proxySeq++
	m.proxyQ.push(w)
	m.sched.After(d, m.proxyDoneFn)
}

// proxyDone completes the earliest queued traversal.
func (m *Mesh) proxyDone() {
	w := m.proxyQ.pop()
	switch w.kind {
	case proxyInbound:
		w.in.serve()
	case proxyOutbound:
		w.call.route()
	case proxyResponse:
		w.in.reply(w.resp)
	}
}
