package admission

import "time"

// sweepEvery bounds how many inserts may pass between garbage-
// collection sweeps of expired records.
const sweepEvery = 256

// sweepGrace keeps an expired record around briefly so late child
// calls of an already-expired request still observe "expired" (and are
// cancelled) rather than "unknown" (and sent).
const sweepGrace = time.Second

// Deadlines is a sidecar's provenance-keyed deadline index: the
// remaining-budget expiry of every inbound request currently (or
// recently) being served, keyed by trace ID — the same provenance
// mechanism internal/core uses to carry priorities. Inbound handling
// records each request's expiry (arrival + remaining budget); the
// outbound path looks the expiry up by the child request's trace ID to
// decrement the budget or cancel the call. Records self-expire: a
// periodic sweep deletes entries past expiry+grace, so the index stays
// bounded by arrival rate × budget without explicit removal. The zero
// value is an empty index; its map is made at the first record.
type Deadlines struct {
	m       map[string]time.Duration
	inserts int
}

// Observe records the expiry for a trace ID. When the ID is already
// present the earlier expiry wins: a retry or hedge of the same
// logical request must not extend the original budget.
func (d *Deadlines) Observe(id string, expiry, now time.Duration) {
	if id == "" || expiry <= 0 {
		return
	}
	if d.m == nil {
		d.m = make(map[string]time.Duration)
	}
	if prev, ok := d.m[id]; !ok || expiry < prev {
		d.m[id] = expiry
	}
	d.inserts++
	if d.inserts >= sweepEvery {
		d.inserts = 0
		d.sweep(now)
	}
}

// Expiry returns the recorded expiry for a trace ID.
func (d *Deadlines) Expiry(id string) (time.Duration, bool) {
	e, ok := d.m[id]
	return e, ok
}

// Remaining returns the budget left for a trace ID (possibly negative)
// and whether a deadline is recorded at all.
func (d *Deadlines) Remaining(id string, now time.Duration) (time.Duration, bool) {
	e, ok := d.m[id]
	if !ok {
		return 0, false
	}
	return e - now, true
}

// Len returns the number of live records (tests).
func (d *Deadlines) Len() int { return len(d.m) }

func (d *Deadlines) sweep(now time.Duration) {
	for id, e := range d.m {
		if now > e+sweepGrace {
			delete(d.m, id)
		}
	}
}
