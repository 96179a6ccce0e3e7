package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// laneHandles is how many timer handles a lane script drives.
const laneHandles = 16

// laneRef is the one-heap reference the two-lane Scheduler is checked
// against: every event, timer and link event alike, in one list kept
// in (at, seq) order, with seqs drawn from one counter and eager
// cancellation.
type laneRef struct {
	now     time.Duration
	seq     uint64
	evs     []refEvent
	steps   uint64
	stopped bool
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// at schedules fn and returns its seq, the handle Cancel takes.
func (q *laneRef) at(at time.Duration, fn func()) uint64 {
	e := refEvent{at: at, seq: q.seq, fn: fn}
	q.seq++
	i := sort.Search(len(q.evs), func(i int) bool {
		o := q.evs[i]
		return o.at > e.at || o.at == e.at && o.seq > e.seq
	})
	q.evs = append(q.evs, refEvent{})
	copy(q.evs[i+1:], q.evs[i:])
	q.evs[i] = e
	return e.seq
}

func (q *laneRef) cancel(seq uint64) {
	for i, e := range q.evs {
		if e.seq == seq {
			q.evs = append(q.evs[:i], q.evs[i+1:]...)
			return
		}
	}
}

func (q *laneRef) step() bool {
	if len(q.evs) == 0 {
		return false
	}
	e := q.evs[0]
	q.evs = q.evs[1:]
	q.now = e.at
	q.steps++
	e.fn()
	return true
}

func (q *laneRef) runUntil(t time.Duration) {
	q.stopped = false
	for !q.stopped && len(q.evs) > 0 && q.evs[0].at <= t {
		q.step()
	}
	if q.now < t {
		q.now = t
	}
}

func (q *laneRef) run() {
	q.stopped = false
	for !q.stopped && q.step() {
	}
}

// refNIC is the reference's model of one NIC: a FIFO, a busy flag and
// the packet on the wire. ser is the real NIC's serialisation delay.
type refNIC struct {
	name  string
	q     []refPkt
	busy  bool
	cur   refPkt
	ser   func(size int) time.Duration
	delay time.Duration
	peer  int // node at the other end
}

type refPkt struct {
	id       uint64
	dst      int
	size     int
	delivery func()
}

// logQdisc is a FIFO that logs every Enqueue and Dequeue, so the real
// run shows which link event ran: a serialisation ending always
// dequeues, and an arrival always enqueues or delivers.
type logQdisc struct {
	*FIFO
	name string
	r    *laneRun
}

func (q *logQdisc) Enqueue(p *Packet) bool {
	q.r.note(fmt.Sprintf("enq %s %d", q.name, p.ID))
	return q.FIFO.Enqueue(p)
}

func (q *logQdisc) Dequeue() *Packet {
	p := q.FIFO.Dequeue()
	id := uint64(0)
	if p != nil {
		id = p.ID
	}
	q.r.note(fmt.Sprintf("deq %s %d", q.name, id))
	return p
}

// laneState is what a script can observe after one op.
type laneState struct {
	logged  int
	steps   uint64
	pending int
	now     time.Duration
}

// laneRun executes one lane script, on the Scheduler with a real
// three-node line network a - b - c when ref is false, and on laneRef
// with its link model when true. Link 0 (a - b) serialises a byte a
// nanosecond, link 1 (b - c) one every two, with propagation delays of
// 3 and 0 ns: with timers on the same nanosecond grid, serialisation
// ends and arrivals tie with timers, and with each other, all the time.
type laneRun struct {
	ref  bool
	prog []byte

	s     *Scheduler
	nodes [3]*Node
	h     [laneHandles]Timer

	q      *laneRef
	nics   [4]*refNIC // a>b, b>a, b>c, c>b
	rh     [laneHandles]uint64
	rArmed [laneHandles]bool
	pktIDs uint64

	due    [laneHandles]time.Duration
	log    []string
	states []laneState
	nextID int
	budget int // callback arms, sends and Steps left, so every Run drains
	acts   map[uint64]func()
}

var laneLinks = [2]LinkConfig{
	{Rate: 8 * Gbps, Delay: 3, QueueBytes: 1 << 30},
	{Rate: 4 * Gbps, Delay: 0, QueueBytes: 1 << 30},
}

func newLaneRun(prog []byte, ref bool) *laneRun {
	r := &laneRun{ref: ref, prog: prog, budget: 64, acts: map[uint64]func(){}}
	names := [4]string{"a>b", "b>a", "b>c", "c>b"}
	if ref {
		r.q = &laneRef{}
		// The model takes each link's serialisation delay from a link
		// of the same rate, so both runs compute identical times.
		for i := range r.nics {
			l := &Link{cfg: laneLinks[i/2]}
			r.nics[i] = &refNIC{name: names[i], ser: l.serializationDelay, delay: l.cfg.Delay, peer: i/2 + 1 - i%2}
		}
		return r
	}
	r.s = NewScheduler()
	net := NewNetwork(r.s)
	for i := range r.nodes {
		node := net.AddNode(string(rune('a' + i)))
		node.SetDeliver(func(p *Packet) { r.delivered(i, p.ID) })
		r.nodes[i] = node
	}
	for i, cfg := range laneLinks {
		l := net.Connect(r.nodes[i], r.nodes[i+1], cfg)
		l.A().SetQdisc(&logQdisc{FIFO: NewFIFO(cfg.QueueBytes), name: names[2*i], r: r})
		l.B().SetQdisc(&logQdisc{FIFO: NewFIFO(cfg.QueueBytes), name: names[2*i+1], r: r})
	}
	return r
}

// next consumes one program byte; an exhausted program reads zeros.
func (r *laneRun) next() int {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return int(b)
}

// delay draws a small delay on the nanosecond grid.
func (r *laneRun) delay() time.Duration { return time.Duration(r.next() % 8) }

func (r *laneRun) now() time.Duration {
	if r.ref {
		return r.q.now
	}
	return r.s.Now()
}

func (r *laneRun) note(what string) { r.log = append(r.log, fmt.Sprintf("%v %s", r.now(), what)) }

// action draws, now, what a callback does when it runs: nothing, arm or
// re-arm a handle, cancel one, send a packet, Stop the loop, or Step
// the next event from inside this one.
func (r *laneRun) action(self int) func() {
	kind, j, d := r.next()%8, r.next()%laneHandles, r.delay()
	src, dst, size := r.next()%3, r.next()%3, 1+r.next()%4
	return func() {
		switch kind {
		case 1:
			if r.budget > 0 {
				r.budget--
				r.rearm(self, r.now()+d)
			}
		case 2:
			if r.budget > 0 {
				r.budget--
				r.rearm(j, max(r.now(), r.due[j]+d-3))
			}
		case 3:
			r.cancel(j)
		case 4, 5:
			if r.budget > 0 && src != dst {
				r.budget--
				r.send(src, dst, size)
			}
		case 6:
			r.stop()
		case 7:
			if r.budget > 0 {
				r.budget--
				r.step()
			}
		}
	}
}

func (r *laneRun) pending() int {
	if r.ref {
		return len(r.q.evs)
	}
	return r.s.Pending()
}

func (r *laneRun) step() {
	if r.ref {
		r.q.step()
	} else {
		r.s.Step()
	}
}

// event returns a fresh timer callback: it logs its id, then acts.
func (r *laneRun) event(self int) func() {
	id := r.nextID
	r.nextID++
	act := r.action(self)
	return func() {
		r.note(fmt.Sprintf("t%d pending %d", id, r.pending()))
		act()
	}
}

// arm is the owner's cancel-then-At.
func (r *laneRun) arm(i int, at time.Duration) {
	fn := r.event(i)
	if r.ref {
		r.cancel(i)
		r.rh[i], r.rArmed[i] = r.q.at(at, fn), true
	} else {
		r.h[i].Cancel()
		r.h[i] = r.s.At(at, fn)
	}
	r.due[i] = at
}

// rearm is Rearm on the Scheduler and Cancel + At on the reference.
func (r *laneRun) rearm(i int, at time.Duration) {
	if !r.ref {
		r.h[i] = r.s.Rearm(r.h[i], at, r.event(i))
		r.due[i] = at
		return
	}
	r.arm(i, at)
}

func (r *laneRun) cancel(i int) {
	if !r.ref {
		r.h[i].Cancel()
		return
	}
	if r.rArmed[i] {
		r.q.cancel(r.rh[i])
		r.rArmed[i] = false
	}
}

func (r *laneRun) stop() {
	if r.ref {
		r.q.stopped = true
	} else {
		r.s.Stop()
	}
}

// send injects a packet of size bytes at node src for node dst; its
// delivery runs an action drawn now.
func (r *laneRun) send(src, dst, size int) {
	act := r.action(0)
	if !r.ref {
		p := r.nodes[src].net.AllocPacket()
		p.Flow = FlowKey{Src: r.nodes[src].Addr(), Dst: r.nodes[dst].Addr(), Proto: ProtoUDP}
		p.Size = size
		r.acts[p.ID] = act
		r.nodes[src].Inject(p)
		return
	}
	r.pktIDs++
	r.route(src, refPkt{id: r.pktIDs, dst: dst, size: size, delivery: act})
}

func (r *laneRun) delivered(node int, id uint64) {
	r.note(fmt.Sprintf("dlv %c %d pending %d", 'a'+node, id, r.pending()))
	act := r.acts[id]
	delete(r.acts, id)
	act()
}

// route, transmit, txDone and arrive are the reference's link model:
// the packet path of Node and NIC, with the same scheduling order.
func (r *laneRun) route(node int, p refPkt) {
	if p.dst == node {
		r.note(fmt.Sprintf("dlv %c %d pending %d", 'a'+node, p.id, r.pending()))
		p.delivery()
		return
	}
	var n *refNIC
	if p.dst > node {
		n = r.nics[2*node]
	} else {
		n = r.nics[2*node-1]
	}
	r.note(fmt.Sprintf("enq %s %d", n.name, p.id))
	n.q = append(n.q, p)
	if !n.busy {
		r.transmit(n)
	}
}

func (r *laneRun) transmit(n *refNIC) {
	if len(n.q) == 0 {
		r.note(fmt.Sprintf("deq %s 0", n.name))
		n.busy = false
		return
	}
	p := n.q[0]
	n.q = n.q[1:]
	r.note(fmt.Sprintf("deq %s %d", n.name, p.id))
	n.busy, n.cur = true, p
	r.q.at(r.q.now+n.ser(p.size), func() { r.txDone(n) })
}

func (r *laneRun) txDone(n *refNIC) {
	p := n.cur
	r.q.at(r.q.now+n.delay, func() { r.route(n.peer, p) })
	r.transmit(n)
}

func (r *laneRun) op() {
	now := r.now()
	switch op, i := r.next()%12, r.next()%laneHandles; op {
	case 0:
		r.arm(i, now+r.delay())
	case 1:
		r.rearm(i, now+r.delay())
	case 2: // earlier, equal or later than the current deadline
		r.rearm(i, max(now, r.due[i]+r.delay()-3))
	case 3:
		r.cancel(i)
	case 4:
		if src, dst := i%3, r.next()%3; src != dst {
			r.send(src, dst, 1+r.next()%4)
		}
	case 5: // a burst from one node: a queue builds behind the wire
		src, dst, k := i%3, r.next()%3, 2+r.next()%4
		for ; src != dst && k > 0; k-- {
			r.send(src, dst, 1+r.next()%4)
		}
	case 6:
		r.step()
	case 7:
		r.runUntil(now + r.delay())
	case 8: // bounds around a timer's old and new keys
		r.runUntil(max(now, r.due[i]+r.delay()-4))
	case 9:
		r.budget = 64
		if r.ref {
			r.q.run()
		} else {
			r.s.Run()
		}
	case 10: // fire-and-forget timers crowd the same times
		fn := r.event(i)
		if r.ref {
			r.q.at(now+r.delay(), fn)
		} else {
			r.s.At(now+r.delay(), fn)
		}
	case 11: // a dropped handle: Rearm of the zero Timer schedules afresh
		if r.ref {
			r.rArmed[i] = false
		} else {
			r.h[i] = Timer{}
		}
		r.rearm(i, now+r.delay())
	}
}

func (r *laneRun) runUntil(t time.Duration) {
	if r.ref {
		r.q.runUntil(t)
	} else {
		r.s.RunUntil(t)
	}
}

func (r *laneRun) snapshot() {
	st := laneState{logged: len(r.log), now: r.now(), pending: r.pending()}
	if r.ref {
		st.steps = r.q.steps
	} else {
		st.steps = r.s.Steps()
	}
	r.states = append(r.states, st)
}

func runLaneScript(prog []byte, ref bool) *laneRun {
	r := newLaneRun(prog, ref)
	for len(r.prog) > 0 {
		r.op()
		r.snapshot()
	}
	r.budget = 64
	r.runUntil(1 << 40)
	r.snapshot()
	return r
}

// checkLaneScript runs prog on the Scheduler and on the reference and
// fails at the first op after which they differ.
func checkLaneScript(t *testing.T, prog []byte) {
	t.Helper()
	got, want := runLaneScript(prog, false), runLaneScript(prog, true)
	for k := range want.log {
		if k >= len(got.log) || got.log[k] != want.log[k] {
			g := "nothing"
			if k < len(got.log) {
				g = got.log[k]
			}
			t.Fatalf("dispatch log line %d: Scheduler %q, one-heap reference %q", k, g, want.log[k])
		}
	}
	if len(got.states) != len(want.states) {
		t.Fatalf("Scheduler ran %d ops, one-heap reference %d", len(got.states), len(want.states))
	}
	for k := range want.states {
		if got.states[k] != want.states[k] {
			t.Fatalf("after op %d: Scheduler %+v, one-heap reference %+v", k, got.states[k], want.states[k])
		}
	}
}

// TestWireLaneMatchesOneHeap: the Scheduler's two lanes dispatch
// exactly as one list ordered on (at, seq) does. Random scripts send
// packets over a line of two links, singly and in bursts, from the
// script and from callbacks, so serialisation ends and arrivals tie
// with timers and with each other on the same nanosecond; they arm,
// cancel and Rearm timers to later and earlier times, run RunUntil to
// bounds equal to event times, and Stop or Step from inside callbacks,
// a packet's delivery among them. The log (time, and which timer fired
// or which queue a link event touched, with Pending as each callback
// saw it), and Steps, Pending and the clock after every op, must agree.
func TestWireLaneMatchesOneHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 300; p++ {
		prog := make([]byte, 4*(50+rng.Intn(300)))
		rng.Read(prog)
		checkLaneScript(t, prog)
	}
}

func FuzzWireLane(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 2, 3, 1, 2, 3, 0, 0, 2, 10, 1, 1, 7, 0, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkLaneScript(t, prog)
	})
}

// TestWireEventSize pins a link event at 32 B: two of them per packet
// hop fill the wire lane, and a wider record moves every sift.
func TestWireEventSize(t *testing.T) {
	if got := unsafe.Sizeof(wireEvent{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(wireEvent{}) = %d B, want 32", got)
	}
}

// TestPacketHopAllocs: once the free lists are warm, a packet hop
// (inject, qdisc, serialisation end, arrival, delivery) allocates
// nothing.
func TestPacketHopAllocs(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s)
	na, nb := net.AddNode("a"), net.AddNode("b")
	net.Connect(na, nb, LinkConfig{Rate: 15 * Gbps, Delay: 10 * time.Microsecond})
	flow := FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	delivered := 0
	nb.SetDeliver(func(*Packet) { delivered++ })
	hop := func() {
		for i := 0; i < 8; i++ {
			p := net.AllocPacket()
			p.Flow, p.Size = flow, MTU
			na.Inject(p)
		}
		s.Run()
	}
	hop()
	allocs := testing.AllocsPerRun(100, hop) // 101 runs: one warms up
	if want := 8 * 102; delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
	if allocs != 0 {
		t.Fatalf("8 packet hops allocate %v objects, want 0", allocs)
	}
}
