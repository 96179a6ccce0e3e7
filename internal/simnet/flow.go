package simnet

import (
	"math"
	"time"
)

// Fluid-flow engine: the flow-level fast path behind FidelityFlow and
// FidelityHybrid.
//
// A fluid flow models one bulk transfer as a continuous stream instead
// of a train of per-MTU packet events. Every active flow has an
// instantaneous rate — its max-min fair share of the links on its path,
// computed by progressive filling over the current flow set — and the
// engine schedules exactly one event: the earliest flow completion.
// Between events each flow's remaining bytes drain analytically
// (remaining -= rate * dt), so the event cost of a transfer is
// O(flow arrivals and departures that share a link with it) rather than
// O(bytes/MSS). That is the entire speedup.
//
// Packets and fluid coexist on a link: a NIC carrying fluid rate r
// serializes packets at (line rate - r), floored at minResidualFrac of
// line rate, so control traffic sees the bandwidth the bulk transfers
// leave behind. In hybrid fidelity the coexistence is also the demotion
// sensor: a data-sized packet enqueued on a NIC whose fluid share is
// near capacity (or whose queue has a real backlog) is evidence of
// contention the fluid model cannot represent, and every flow crossing
// that NIC is demoted back to packet fidelity. Impairments, link down,
// and qdisc replacement demote unconditionally in both modes — loss,
// jitter, and AQM behavior only exist in the packet model.
//
// Determinism: flows are kept in ascending-id order and every
// computation iterates that slice (or per-path NIC slices); per-NIC
// rate state lives in NIC fields, so no maps are involved at all.
// Demotion callbacks are deferred through the scheduler (After(0)) so
// they run in stable event order rather than reentrantly inside
// whatever send path tripped the sensor. Rate recomputation is also
// deferred (the dirty/flush pair): a batch of flows starting at the
// same virtual instant — the signature of a large fan-in — costs one
// recompute instead of one per arrival, which is the difference
// between O(n) and O(n^2) for an n-flow burst.
const (
	// DemoteBacklog is the egress-queue depth (bytes) above which a path
	// is too contended for the fluid model: a promotion candidate must
	// have every hop's backlog below it, and in hybrid mode crossing it
	// demotes the flows on that NIC.
	DemoteBacklog = 32 * 1024

	// demoteSatFrac: in hybrid mode, a data packet entering a NIC whose
	// aggregate fluid rate is at least this fraction of the line rate
	// demotes the flows there — the link is effectively saturated, so
	// queueing now shapes results and must be simulated exactly.
	demoteSatFrac = 0.9

	// demoteDataBytes separates control traffic (ACKs, HTTP control
	// frames — header-sized) from data: packets at or below this size
	// never trigger demotion, or every ACK crossing a busy link would
	// evict its own flow.
	demoteDataBytes = 256

	// minResidualFrac floors the packet serialization rate on a
	// fluid-carrying NIC at this fraction of the line rate, so control
	// packets always make progress even under full fluid saturation.
	minResidualFrac = 0.01

	// completeEps: flows with at most this many bytes left are complete.
	// Completion timers are ceil-rounded to whole nanoseconds, so the
	// earliest flow reaches exactly 0 up to float error; 1e-3 bytes
	// absorbs that error at any transfer size this simulator reaches.
	completeEps = 1e-3

	// satEps is the relative residual capacity below which a link counts
	// as saturated during progressive filling.
	satEps = 1e-9
)

// FlowID identifies an active fluid flow. IDs are never reused.
type FlowID int64

// fluidFlow is one active bulk transfer under fluid modeling. Flows are
// recycled through the engine's free list.
//
//meshvet:pooled
type fluidFlow struct {
	id        FlowID
	path      []*NIC  // egress NICs, source to destination order
	remaining float64 // bytes left to transfer
	rate      float64 // current fair share, bytes per second
	frozen    bool    // scratch flag during progressive filling
	scoped    bool    // scratch flag: in the component being re-shared
	onDone    func()  // invoked at completion time
	onDemote  func()  // deferred via After(0) when the flow is demoted
}

// FlowStats counts engine activity since creation.
type FlowStats struct {
	Started    uint64
	Completed  uint64
	Demoted    uint64
	Cancelled  uint64
	Recomputes uint64
	PeakActive int
}

// FlowEngine schedules fluid flows for one Network. It shares the
// network's scheduler and is single-threaded like everything else.
type FlowEngine struct {
	net   *Network
	sched *Scheduler

	flows   []*fluidFlow // active flows in ascending id order
	nextID  FlowID
	lastAdv time.Duration // virtual time of the last analytic advance
	timer   Timer         // the single pending completion timer
	timerFn func()        // bound onTimer, allocated once

	// dirty marks a pending recompute: Start/Cancel only mutate the flow
	// set and defer the (advance, recompute, reschedule) triple to a
	// same-timestamp flush event, coalescing bursts. flushFn is the bound
	// flush, allocated once.
	dirty   bool
	flushFn func()

	// nics is the scope of the next recompute, under assembly. Between
	// recomputes it holds the seeds: the NICs on the paths of flows
	// started or removed since the last one. recompute grows it to the
	// connected component(s) around them, re-shares those and empties
	// it. Invariant: fluidSeen is true exactly for members of nics. The
	// per-NIC numbers live on the NICs themselves (fluidRate and the
	// fluid* scratch).
	nics []*NIC

	// Scratch lists, empty between uses and kept so the per-event paths
	// allocate nothing: recompute's flows in scope (when that is not all
	// of them), onTimer's completion batch and demoteWhere's demotion
	// batch. The batches are separate because an onDone callback may trip
	// a demotion while the completion batch is still being iterated.
	scope, done, victims []*fluidFlow

	pool []*fluidFlow // free list

	stats FlowStats
}

func newFlowEngine(n *Network) *FlowEngine {
	e := &FlowEngine{net: n, sched: n.sched}
	e.timerFn = e.onTimer
	e.flushFn = e.flush
	return e
}

// Start begins a fluid transfer of bytes along path. onDone runs at the
// analytic completion time; onDemote runs (deferred via the scheduler)
// if the flow is demoted back to packet fidelity before completing, at
// which point the caller re-sends the remaining range as packets.
func (e *FlowEngine) Start(path []*NIC, bytes int64, onDone, onDemote func()) FlowID {
	if len(path) == 0 {
		panic("simnet: fluid flow needs a non-empty path")
	}
	if bytes <= 0 {
		panic("simnet: fluid flow needs positive bytes")
	}
	f := e.alloc()
	e.nextID++
	f.id = e.nextID
	f.path = append(f.path[:0], path...)
	f.remaining = float64(bytes)
	f.onDone = onDone
	f.onDemote = onDemote
	e.flows = append(e.flows, f) //meshvet:allow poolescape the active set owns a flow until completion/demotion frees it
	e.stats.Started++
	if len(e.flows) > e.stats.PeakActive {
		e.stats.PeakActive = len(e.flows)
	}
	// The new flow joins with rate 0; existing rates stay valid until the
	// deferred flush advances and recomputes, so a same-instant burst of
	// arrivals costs one recompute total.
	e.seed(f.path)
	e.markDirty()
	return f.id
}

// seed puts the NICs on a started or removed flow's path into the scope
// of the next recompute: the shares of the flows crossing them, and of
// whatever those share a NIC with in turn, are the only ones the change
// can move.
func (e *FlowEngine) seed(path []*NIC) {
	for _, nic := range path {
		if !nic.fluidSeen {
			nic.fluidSeen = true
			e.nics = append(e.nics, nic)
		}
	}
}

// markDirty schedules a same-timestamp flush if one is not pending.
func (e *FlowEngine) markDirty() {
	if e.dirty {
		return
	}
	e.dirty = true
	e.sched.After(0, e.flushFn)
}

// flush runs the deferred recompute, unless something (a completion, a
// demotion, a rate query) already refreshed the engine.
func (e *FlowEngine) flush() {
	if !e.dirty {
		return
	}
	e.refresh()
}

// flushIfDirty refreshes synchronously so queries observe final rates
// even before the flush event runs.
func (e *FlowEngine) flushIfDirty() {
	if e.dirty {
		e.refresh()
	}
}

// refresh advances analytic state at the pre-mutation rates, then
// recomputes fair shares and re-arms the completion timer.
func (e *FlowEngine) refresh() {
	e.dirty = false
	e.advance()
	e.recompute()
	e.reschedule()
}

// Cancel removes an active flow without firing either callback (e.g.
// its connection tore down). It reports whether the flow was active.
func (e *FlowEngine) Cancel(id FlowID) bool {
	i := e.find(id)
	if i < 0 {
		return false
	}
	f := e.flows[i]
	copy(e.flows[i:], e.flows[i+1:])
	e.flows[len(e.flows)-1] = nil
	e.flows = e.flows[:len(e.flows)-1]
	e.seed(f.path)
	e.free(f)
	e.stats.Cancelled++
	e.markDirty()
	return true
}

// Active returns the number of in-flight fluid flows.
func (e *FlowEngine) Active() int { return len(e.flows) }

// Stats returns cumulative engine counters.
func (e *FlowEngine) Stats() FlowStats { return e.stats }

// Remaining returns the bytes left in an active flow, advancing the
// analytic state to now first.
func (e *FlowEngine) Remaining(id FlowID) (float64, bool) {
	e.flushIfDirty()
	i := e.find(id)
	if i < 0 {
		return 0, false
	}
	e.advance()
	return e.flows[i].remaining, true
}

// Rate returns an active flow's current fair-share rate in bytes/sec.
func (e *FlowEngine) Rate(id FlowID) (float64, bool) {
	e.flushIfDirty()
	i := e.find(id)
	if i < 0 {
		return 0, false
	}
	return e.flows[i].rate, true
}

// ResolvePath walks the routing tables from src toward flow.Dst,
// returning the ordered egress NICs and the summed one-way propagation
// delay. Loopback (zero-hop) and unroutable destinations report !ok:
// neither benefits from fluid modeling.
func (e *FlowEngine) ResolvePath(src *Node, flow FlowKey) (path []*NIC, prop time.Duration, ok bool) {
	cur := src
	for hops := 0; cur.addr != flow.Dst; hops++ {
		if hops >= DefaultTTL {
			return nil, 0, false
		}
		nic, pinned := cur.flowRoutes[flow]
		if !pinned {
			nic = e.net.nextHop(cur, flow.Dst)
		}
		if nic == nil {
			return nil, 0, false
		}
		path = append(path, nic)
		prop += nic.link.cfg.Delay
		cur = nic.peer.node
	}
	if len(path) == 0 {
		return nil, 0, false
	}
	return path, prop, true
}

// PathEligible reports whether a path is clean enough for the fluid
// model right now: every hop up, unimpaired in both directions (the
// reverse direction carries the ACK), on a plain FIFO (custom qdiscs —
// shapers, AQM, priority — only exist in the packet model), and with a
// shallow egress queue.
func (e *FlowEngine) PathEligible(path []*NIC) bool {
	for _, nic := range path {
		if nic.link.down || nic.impair != nil || nic.peer.impair != nil {
			return false
		}
		if _, plain := nic.qdisc.(*FIFO); !plain {
			return false
		}
		if nic.qdisc.Backlog() >= DemoteBacklog {
			return false
		}
	}
	return true
}

// serializeDelay returns the serialization delay for size bytes leaving
// this NIC. A NIC carrying fluid serializes packets at the bandwidth
// the flows leave behind (floored at minResidualFrac of line rate);
// fluidRate is always 0 in packet fidelity, so packet mode takes the
// exact historical formula and stays byte-identical.
func (n *NIC) serializeDelay(size int) time.Duration {
	fluid := n.fluidRate
	if fluid == 0 {
		return n.link.serializationDelay(size)
	}
	avail := float64(n.link.cfg.Rate) - 8*fluid
	if floor := float64(n.link.cfg.Rate) * minResidualFrac; avail < floor {
		avail = floor
	}
	return time.Duration(float64(size*8) / avail * float64(time.Second))
}

// noteSend is the hybrid contention sensor, called for every packet
// accepted by a NIC's egress queue. A data-sized packet on a NIC whose
// fluid share is near line rate — or whose queue is building — means
// the fluid model is hiding real queueing, so the flows there demote.
func (e *FlowEngine) noteSend(n *NIC, size int) {
	if len(e.flows) == 0 || size <= demoteDataBytes || e.net.fidelity != FidelityHybrid {
		return
	}
	r := n.fluidRate
	if r == 0 {
		return
	}
	if r >= demoteSatFrac*n.fluidLine() || n.qdisc.Backlog() >= DemoteBacklog {
		e.demoteNIC(n)
	}
}

// noteImpaired demotes every flow whose path crosses the impaired NIC
// in either direction — loss and jitter only exist in the packet model.
// Covers Impair, and SetDown via its impairment on both endpoints.
func (e *FlowEngine) noteImpaired(nic *NIC) {
	if len(e.flows) == 0 {
		return
	}
	e.demoteWhere(func(f *fluidFlow) bool {
		return pathHas(f.path, nic) || pathHas(f.path, nic.peer)
	})
}

// demoteNIC demotes every flow whose forward path crosses nic.
func (e *FlowEngine) demoteNIC(nic *NIC) {
	if len(e.flows) == 0 {
		return
	}
	e.demoteWhere(func(f *fluidFlow) bool { return pathHas(f.path, nic) })
}

func pathHas(path []*NIC, nic *NIC) bool {
	for _, n := range path {
		if n == nic {
			return true
		}
	}
	return false
}

// demoteWhere removes every flow matching hit and defers its onDemote
// through the scheduler. Deferral keeps demotion deterministic and
// non-reentrant: the sensor fires inside arbitrary send paths, and the
// owning connection must not re-enter its own send loop mid-send.
func (e *FlowEngine) demoteWhere(hit func(*fluidFlow) bool) {
	e.advance()
	n := len(e.flows)
	keep := e.flows[:0]
	for _, f := range e.flows {
		if hit(f) {
			e.seed(f.path)
			e.victims = append(e.victims, f) //meshvet:allow poolescape demotion batch: flows are freed below before their callbacks are scheduled
		} else {
			keep = append(keep, f) //meshvet:allow poolescape in-place filter of the engine's own active set
		}
	}
	if len(e.victims) == 0 {
		return // keep was refilled with the identical contents
	}
	for i := len(keep); i < n; i++ {
		e.flows[i] = nil
	}
	e.flows = keep
	e.stats.Demoted += uint64(len(e.victims))
	e.dirty = false // the full refresh below covers any pending flush
	e.recompute()
	e.reschedule()
	for _, f := range e.victims {
		cb := f.onDemote
		e.free(f)
		if cb != nil {
			e.sched.After(0, cb)
		}
	}
	clear(e.victims)
	e.victims = e.victims[:0]
}

// advance drains every flow analytically from lastAdv to now. Called at
// the top of every mutation so rates always apply to current state.
func (e *FlowEngine) advance() {
	now := e.sched.Now()
	dt := now - e.lastAdv
	e.lastAdv = now
	if dt <= 0 || len(e.flows) == 0 {
		return
	}
	sec := float64(dt) / float64(time.Second)
	for _, f := range e.flows {
		if f.rate > 0 {
			f.remaining -= f.rate * sec
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
}

// recompute re-shares the connected component(s) of the flow set that
// changed since the last recompute, and nothing else. Max-min fairness
// is separable: two groups of flows that share no NIC cannot move each
// other's shares, so every flow outside the scope already holds exactly
// the rate a whole-set fill would give it. The scope grows from the
// seeds to a fixed point over shared NICs (flow -> its NICs -> the
// flows crossing them), marked with the fluidSeen and scoped scratch
// flags over the flow list itself, so no per-NIC membership is kept.
//
// Inside the scope the shares come from progressive filling: raise all
// unfrozen flows' rates uniformly until some link saturates, freeze the
// flows crossing it, repeat. All iteration is over slices in
// deterministic (flow id, path position) order, and all per-NIC numbers
// live in NIC fields — no maps, no allocation.
func (e *FlowEngine) recompute() {
	e.stats.Recomputes++
	// A seed with no flow left on it keeps this 0.
	for _, nic := range e.nics {
		nic.fluidRate, nic.fluidCap, nic.fluidCnt = 0, nic.fluidLine(), 0
	}

	// Grow the scope until a pass over the flows adds none. A flow enters
	// when any NIC on its path is in; its whole path enters with it.
	n := 0
	for grew := true; grew && n < len(e.flows); {
		grew = false
		for _, f := range e.flows {
			if f.scoped || !crossesScope(f.path) {
				continue
			}
			f.scoped, f.frozen, f.rate = true, false, 0
			n++
			grew = true
			for _, nic := range f.path {
				if !nic.fluidSeen {
					nic.fluidSeen = true
					nic.fluidRate, nic.fluidCap, nic.fluidCnt = 0, nic.fluidLine(), 0
					e.nics = append(e.nics, nic)
				}
				nic.fluidCnt++
			}
		}
	}
	// The fill visits the scoped flows in ascending id, as a whole-set
	// fill would, so each NIC's fluidRate is summed in the same order.
	scope := e.flows
	if n < len(e.flows) {
		for _, f := range e.flows {
			if f.scoped {
				e.scope = append(e.scope, f) //meshvet:allow poolescape scratch copy of active flows, emptied before recompute returns
			}
		}
		scope = e.scope
	}

	unfrozen := n
	for unfrozen > 0 {
		// The next uniform increment is the tightest per-flow share of
		// residual capacity across links still carrying unfrozen flows.
		inc := math.MaxFloat64
		for _, nic := range e.nics {
			if nic.fluidCnt > 0 {
				if s := nic.fluidCap / float64(nic.fluidCnt); s < inc {
					inc = s
				}
			}
		}
		if inc == math.MaxFloat64 {
			break
		}
		if inc > 0 {
			for _, f := range scope {
				if !f.frozen {
					f.rate += inc
				}
			}
			for _, nic := range e.nics {
				if nic.fluidCnt > 0 {
					nic.fluidCap -= inc * float64(nic.fluidCnt)
					if nic.fluidCap < 0 {
						nic.fluidCap = 0
					}
				}
			}
		}
		// Freeze flows crossing any link that just saturated.
		froze := 0
		for _, f := range scope {
			if f.frozen {
				continue
			}
			for _, nic := range f.path {
				if nic.fluidCap <= satEps*nic.fluidLine() {
					f.frozen = true
					froze++
					for _, m := range f.path {
						m.fluidCnt--
					}
					break
				}
			}
		}
		if froze == 0 {
			break // float-degenerate increment: rates are already fair
		}
		unfrozen -= froze
	}

	for _, f := range scope {
		f.scoped = false
		for _, nic := range f.path {
			nic.fluidRate += f.rate
		}
	}
	for _, nic := range e.nics {
		nic.fluidSeen = false
	}
	e.nics = e.nics[:0]
	clear(e.scope)
	e.scope = e.scope[:0]
}

// fluidLine is the NIC's line rate in bytes per second, the capacity
// progressive filling shares out.
func (n *NIC) fluidLine() float64 { return float64(n.link.cfg.Rate) / 8 }

// crossesScope reports whether any NIC on path is in recompute's scope.
func crossesScope(path []*NIC) bool {
	for _, nic := range path {
		if nic.fluidSeen {
			return true
		}
	}
	return false
}

// reschedule (re)arms the single completion timer for the earliest
// analytic completion. The delay is ceil-rounded to a whole nanosecond
// so the earliest flow has provably non-positive remaining at fire
// time regardless of float rounding.
func (e *FlowEngine) reschedule() {
	e.timer.Cancel()
	e.timer = Timer{}
	if len(e.flows) == 0 {
		return
	}
	earliest := math.MaxFloat64
	for _, f := range e.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < earliest {
			earliest = t
		}
	}
	if earliest == math.MaxFloat64 {
		return
	}
	d := time.Duration(math.Ceil(earliest * float64(time.Second)))
	if d < 0 {
		d = 0
	}
	e.timer = e.sched.After(d, e.timerFn)
}

// onTimer completes every flow that has drained. Completions are
// removed from the engine — and the survivors' rates recomputed —
// before any callback runs, so callbacks observe a consistent engine
// and may immediately Start follow-on flows.
func (e *FlowEngine) onTimer() {
	e.timer = Timer{}
	e.advance()
	n := len(e.flows)
	keep := e.flows[:0]
	for _, f := range e.flows {
		if f.remaining <= completeEps {
			e.seed(f.path)
			e.done = append(e.done, f) //meshvet:allow poolescape completion batch: flows are freed below before their callbacks run
		} else {
			keep = append(keep, f) //meshvet:allow poolescape in-place filter of the engine's own active set
		}
	}
	for i := len(keep); i < n; i++ {
		e.flows[i] = nil
	}
	e.flows = keep
	e.stats.Completed += uint64(len(e.done))
	e.dirty = false // the full refresh below covers any pending flush
	e.recompute()
	e.reschedule()
	for _, f := range e.done {
		cb := f.onDone
		e.free(f)
		if cb != nil {
			cb()
		}
	}
	clear(e.done)
	e.done = e.done[:0]
}

func (e *FlowEngine) find(id FlowID) int {
	for i, f := range e.flows {
		if f.id == id {
			return i
		}
	}
	return -1
}

func (e *FlowEngine) alloc() *fluidFlow {
	if k := len(e.pool); k > 0 {
		f := e.pool[k-1]
		e.pool = e.pool[:k-1]
		return f
	}
	return &fluidFlow{}
}

func (e *FlowEngine) free(f *fluidFlow) {
	f.id = 0
	for i := range f.path {
		f.path[i] = nil
	}
	f.path = f.path[:0]
	f.remaining, f.rate = 0, 0
	f.frozen, f.scoped = false, false
	f.onDone, f.onDemote = nil, nil
	e.pool = append(e.pool, f) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
}
