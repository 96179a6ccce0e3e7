// Package admission implements priority-aware admission control and
// overload protection for the mesh's sidecars — the fourth cross-layer
// optimization keyed on the paper's carried priority provenance.
//
// The paper's prioritization (§4.2) protects latency-sensitive (LS)
// requests from *bandwidth* contention, but offers no defense when
// demand exceeds *service capacity*: sidecars accept unbounded work,
// queues grow without limit, and both classes degrade together. This
// package supplies two mechanisms, and the deadlines the third needs
// are the mesh's:
//
//  1. A bounded two-class priority queue per sidecar with CoDel-style
//     queue-delay shedding: when a class's queueing delay stays above
//     its target for a full interval, waiting requests of that class
//     are shed. The latency-insensitive (LI) class has a tight target
//     and is shed first; the LS class has a far looser target and is
//     shed only as a last resort.
//
//  2. An adaptive concurrency limiter (gradient/AIMD on observed
//     service latency) replacing the implicit unbounded inflight
//     window: the limit additively grows while latency stays near the
//     no-load floor and multiplicatively shrinks — scaled by the
//     overshoot gradient — when it does not, keeping the server at the
//     knee of its latency/throughput curve. A Little's-law capacity
//     estimate (limit / mean latency) is exposed for telemetry.
//
//  3. End-to-end deadline propagation: the gateway stamps a total
//     budget, each hop decrements it by its observed queue + service
//     time, and requests whose remaining budget is exhausted are
//     rejected at inbound (an Item's Expiry, shed here with
//     ShedDeadline) or cancelled before the downstream call, so wasted
//     work is cut at the earliest possible hop. Each sidecar keeps its
//     requests' expiries in a trace.Provenance table keyed by the
//     trace ID — the same provenance table internal/core keeps
//     priorities in.
//
// The package is pure policy/state: it never touches the network or
// the scheduler. The mesh wires it into Sidecar inbound handling and
// Sidecar.Call, with configuration pushed from the ControlPlane
// (mesh.AdmissionPolicy).
package admission

import "time"

// Class is a request's admission priority class, derived from the
// carried priority provenance (mesh.HeaderPriority).
type Class int

// The two classes, in strict service order.
const (
	// LS is the latency-sensitive (high-priority) class: served first,
	// shed only as a last resort.
	LS Class = iota
	// LI is the latency-insensitive (low-priority) class: served after
	// LS and shed first under overload.
	LI

	numClasses
)

// String names the class for labels and logs.
func (c Class) String() string {
	if c == LS {
		return "ls"
	}
	return "li"
}

// Reason explains why a request was shed rather than served.
type Reason int

// Shed reasons.
const (
	// ShedQueueFull: the bounded queue had no room (and, for an LS
	// arrival, no LI request could be displaced).
	ShedQueueFull Reason = iota
	// ShedQueueDelay: CoDel-style shedding — the class's queueing delay
	// exceeded its target for a full interval.
	ShedQueueDelay
	// ShedDeadline: the request's deadline budget was already exhausted.
	ShedDeadline
)

// String names the reason for metric labels.
func (r Reason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue_full"
	case ShedQueueDelay:
		return "queue_delay"
	default:
		return "deadline"
	}
}

// Item is one request offered for admission. Exactly one of Run or
// Shed is eventually invoked, synchronously from Offer, Pop, or a
// subsequent Done that dequeues it.
type Item struct {
	// Class selects the priority class.
	Class Class
	// Enqueued is the arrival time (set by the caller to "now").
	Enqueued time.Duration
	// Expiry is the absolute deadline of an item with HasExpiry set:
	// such an item at or past it is shed with ShedDeadline instead of
	// being served. Any time is a deadline, 0 included.
	Expiry    time.Duration
	HasExpiry bool
	// Run dispatches the admitted request.
	Run func()
	// Shed rejects the request with the given reason.
	Shed func(Reason)
}

// expired reports whether the item has a deadline and now is past it.
func (it *Item) expired(now time.Duration) bool { return it.HasExpiry && now >= it.Expiry }
