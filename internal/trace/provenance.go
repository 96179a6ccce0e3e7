package trace

import "time"

// provSweepEvery is how many Puts pass between sweeps of a Provenance
// table's records past their until time.
const provSweepEvery = 256

// Provenance is a table of per-request records keyed by the request ID
// (HeaderRequestID): the lookup the paper's provenance-based
// propagation rests on. A sidecar records a value under a request's ID
// when the request passes, and reads it back for the requests and
// responses that share the ID — core's priority marks, the mesh's
// degraded-response origins and a sidecar's deadline expiries are each
// one table.
//
// Each record holds its value and an until time. Every
// provSweepEvery-th Put deletes the records whose until has passed, so
// a table stays bounded by its Put rate times its records' lifetime
// without a timer: the table never touches the scheduler, and an idle
// mesh leaves the event queue empty. Get and Take do not look at until;
// a record is visible until a sweep deletes it. The zero value is an
// empty table; its map is made at the first Put.
type Provenance[V any] struct {
	m    map[string]provRecord[V]
	puts int
}

type provRecord[V any] struct {
	v     V
	until time.Duration
}

// Put records v under the request ID id until the time until,
// replacing any record the ID had; now is the current time, against
// which the sweep this Put may run compares every record's until. An
// empty ID is not recorded: a request without one has no provenance.
func (p *Provenance[V]) Put(id string, v V, until, now time.Duration) {
	if id == "" {
		return
	}
	if p.m == nil {
		p.m = make(map[string]provRecord[V])
	}
	p.m[id] = provRecord[V]{v: v, until: until}
	p.puts++
	if p.puts >= provSweepEvery {
		p.puts = 0
		for k, r := range p.m {
			if now > r.until {
				delete(p.m, k)
			}
		}
	}
}

// Get returns the value recorded under id.
func (p *Provenance[V]) Get(id string) (V, bool) {
	r, ok := p.m[id]
	return r.v, ok
}

// Take returns the value recorded under id and deletes the record.
func (p *Provenance[V]) Take(id string) (V, bool) {
	r, ok := p.m[id]
	if ok {
		delete(p.m, id)
	}
	return r.v, ok
}

// Len returns the number of records held.
func (p *Provenance[V]) Len() int { return len(p.m) }
