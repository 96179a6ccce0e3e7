// Package poolescapetest seeds violations for the poolescape analyzer.
package poolescapetest

// packet is this fixture's pool-recycled type.
//
//meshvet:pooled
type packet struct {
	id      uint64
	payload []byte
}

type holder struct {
	last *packet
}

var lastSeen *packet

// fieldStore retains the packet in a struct field.
func fieldStore(h *holder, p *packet) {
	h.last = p // want "pooled packet stored into field last may outlive its Release"
}

// globalStore retains the packet in a package-level variable.
func globalStore(p *packet) {
	lastSeen = p // want "pooled packet stored into package-level lastSeen outlives every Release"
}

// elementStore retains the packet in a slice element.
func elementStore(s []*packet, p *packet) {
	s[0] = p // want "pooled packet stored into a slice/map element may outlive its Release"
}

// channelSend hands the packet to another owner.
func channelSend(ch chan *packet, p *packet) {
	ch <- p // want "pooled packet sent on a channel escapes its owner"
}

// sliceAppend retains the packet in a growable slice.
func sliceAppend(batch []*packet, p *packet) []*packet {
	return append(batch, p) // want "pooled packet appended to a slice is retained past this call"
}

// closureCapture lets a deferred closure read the packet after the
// caller may have released it.
func closureCapture(p *packet, schedule func(func())) {
	schedule(func() {
		_ = p.id // want "closure captures pooled packet p"
	})
}

// keyedLiteral retains the packet in a keyed struct literal.
func keyedLiteral(p *packet) holder {
	return holder{last: p} // want "pooled packet stored into field last of a composite literal may outlive its Release"
}

// positionalLiteral retains the packet in a positional struct literal
// behind a pointer.
func positionalLiteral(p *packet) *holder {
	return &holder{p} // want "pooled packet stored into field last of a composite literal may outlive its Release"
}

// elidedLiteral retains the packet in an element literal whose &holder
// is elided.
func elidedLiteral(p *packet) []*holder {
	return []*holder{{last: p}} // want "pooled packet stored into field last of a composite literal may outlive its Release"
}

// sliceLiteral retains the packet as a slice element.
func sliceLiteral(p *packet) []*packet {
	return []*packet{nil, p} // want "pooled packet stored into a slice/map element of a composite literal may outlive its Release"
}

// mapLiterals retain the packet as a map value and as a map key.
func mapLiterals(p *packet) (map[string]*packet, map[*packet]bool) {
	return map[string]*packet{"last": p}, // want "pooled packet stored into a slice/map element of a composite literal may outlive its Release"
		map[*packet]bool{p: true} // want "pooled packet stored as a map key of a composite literal may outlive its Release"
}

// queued mirrors an event record that carries a packet into a queue.
type queued struct {
	at  int64
	pkt *packet
}

// annotatedLiteral is a sanctioned retainer: the queue owns the packet
// until it is delivered.
func annotatedLiteral(q *[]queued, at int64, p *packet) {
	e := queued{at: at, pkt: p} //meshvet:allow poolescape the queue owns a queued packet until delivery
	*q = append(*q, e)
}

// literalOfFields copies what it needs out of the packet: a literal
// holding only its fields retains nothing pooled.
func literalOfFields(p *packet) queued {
	return queued{at: int64(p.id)}
}

// localUse shows that reading fields and passing the value down the
// stack stays free: the call frame is the sanctioned scope.
func localUse(p *packet) uint64 {
	q := p
	return q.id
}

// pool is the sanctioned retainer, annotated like the real pools.
type pool struct {
	free []*packet
}

func (pl *pool) put(p *packet) {
	pl.free = append(pl.free, p) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}

// --- flow-scheduler shapes ---
//
// The fluid-flow engine recycles flow records through a free list and
// filters its active set in place; these fixtures pin the analyzer
// behavior its pooling discipline relies on.

// fluidflow mirrors the engine's pool-recycled flow record.
//
//meshvet:pooled
type fluidflow struct {
	id   int64
	rate float64
	done func()
}

type engine struct {
	active []*fluidflow
	free   []*fluidflow
}

// batchCollect mirrors a completion/demotion sweep: collecting pooled
// flows into a fresh batch slice is retention and needs an annotation.
func (e *engine) batchCollect(hit func(*fluidflow) bool) []*fluidflow {
	var victims []*fluidflow
	for _, f := range e.active {
		if hit(f) {
			victims = append(victims, f) // want "pooled fluidflow appended to a slice is retained past this call"
		}
	}
	return victims
}

// inPlaceFilter mirrors the engine's keep-filter: refilling the active
// set it already owns is sanctioned, recorded by the annotation.
func (e *engine) inPlaceFilter(hit func(*fluidflow) bool) {
	keep := e.active[:0]
	for _, f := range e.active {
		if !hit(f) {
			keep = append(keep, f) //meshvet:allow poolescape in-place filter of the engine's own active set
		}
	}
	e.active = keep
}

// callbackCapture mirrors deferring a demotion callback that captures
// the pooled flow itself instead of copying out what it needs first.
func callbackCapture(f *fluidflow, after func(func())) {
	after(func() {
		f.done() // want "closure captures pooled fluidflow f"
	})
}

// recycleFlow is the engine's free list, the sanctioned retainer.
func (e *engine) recycleFlow(f *fluidflow) {
	e.free = append(e.free, f) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}
