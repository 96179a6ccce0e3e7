package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"meshlayer/internal/simnet"
)

// TestConnSizeClass pins Conn to the 352 B allocation size class: a
// fleet holds two Conns per connection for the whole run, and 353 B
// lands in the 384 B class, +9 % per connection. State a lossless
// connection never touches belongs in connCold.
func TestConnSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 352 {
		t.Fatalf("unsafe.Sizeof(Conn{}) = %d B, budget 352: a field that leaves the class must argue the change with bulk_fanin and ctrl_storm live_heap_mb, and loss-recovery state goes in connCold", got)
	}
}

// TestSegInfoSize pins an unacked segment's row at 16 B: a bulk sender
// holds one per MSS in flight, and at 24 B a 63-slot window moves from
// the 1,024 B allocation class to the 1,536 B one.
func TestSegInfoSize(t *testing.T) {
	if got := unsafe.Sizeof(segInfo{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(segInfo{}) = %d B, want 16: a wider row must argue the change with bulk_fanin and ctrl_storm live_heap_mb", got)
	}
}

// TestConnColdStateSize pins connCold to the 64 B allocation class. A
// connection allocates it on its first loss and keeps it, so on a fleet
// it costs its size once per connection that ever lost a packet.
func TestConnColdStateSize(t *testing.T) {
	if got := unsafe.Sizeof(connCold{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(connCold{}) = %d B, budget 64: a larger cold state must argue the change with bulk_fanin and ctrl_storm live_heap_mb", got)
	}
}

// tableWalk is a star of hosts on one network, every host listening on
// port 80, with the reference the test keeps of who holds which
// connection: live[h] is host h's set, filled by Dial and accept and
// emptied by OnClose.
type tableWalk struct {
	sched    *simnet.Scheduler
	hosts    []*Host
	live     []map[*Conn]bool
	hostOf   map[*Conn]int
	closed   []*Conn // OnClose calls, in order
	graceful int     // OnClose calls without an error
}

func newTableWalk(t *testing.T, hosts int) *tableWalk {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	sw := n.AddNode("switch")
	w := &tableWalk{sched: s, hostOf: map[*Conn]int{}}
	for i := 0; i < hosts; i++ {
		node := n.AddNode(fmt.Sprintf("h%d", i))
		n.Connect(node, sw, simnet.LinkConfig{Rate: simnet.Gbps, Delay: 100 * time.Microsecond})
		h := NewHost(node)
		if len(w.hosts) > 0 && h.tab != w.hosts[0].tab {
			t.Fatal("two hosts of one network hold different tables")
		}
		w.hosts = append(w.hosts, h)
		w.live = append(w.live, map[*Conn]bool{})
		if _, err := h.Listen(80, func(c *Conn) { w.track(i, c) }); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *tableWalk) track(h int, c *Conn) {
	w.live[h][c] = true
	w.hostOf[c] = h
	c.SetOnClose(func(err error) {
		delete(w.live[h], c)
		w.closed = append(w.closed, c)
		if err == nil {
			w.graceful++
		}
	})
}

// anyLive picks a live connection, or nil when there is none.
func (w *tableWalk) anyLive(rng *rand.Rand) *Conn {
	var all []*Conn
	for h := range w.live {
		all = append(all, w.sortedLive(h)...)
	}
	if len(all) == 0 {
		return nil
	}
	return all[rng.Intn(len(all))]
}

// sortedLive is host h's reference set in flow-key order.
func (w *tableWalk) sortedLive(h int) []*Conn {
	var out []*Conn
	for c := range w.live[h] {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return flowLess(out[i].flow, out[j].flow) })
	return out
}

// check holds every host's count, connection list and demux to the
// reference, and the network table to exactly their union.
func (w *tableWalk) check(t *testing.T, when string) {
	t.Helper()
	total := 0
	for i, h := range w.hosts {
		if h.ConnCount() != len(w.live[i]) {
			t.Fatalf("%s: host %d ConnCount = %d, reference holds %d", when, i, h.ConnCount(), len(w.live[i]))
		}
		for slot, c := range h.conns {
			if !w.live[i][c] {
				t.Fatalf("%s: host %d lists %v, which the reference does not hold", when, i, c.flow)
			}
			if int(c.slot) != slot {
				t.Fatalf("%s: host %d lists %v at %d, its slot says %d", when, i, c.flow, slot, c.slot)
			}
		}
		for c := range w.live[i] {
			if c.host != h || c.flow.Src != h.Node().Addr() {
				t.Fatalf("%s: host %d holds %v of another host", when, i, c.flow)
			}
			if got := h.tab.conns[c.flow]; got != c {
				t.Fatalf("%s: host %d: %v demuxes to %p, want %p", when, i, c.flow, got, c)
			}
		}
		checkPortUse(t, h, when)
		total += len(w.live[i])
	}
	if n := len(w.hosts[0].tab.conns); n != total {
		t.Fatalf("%s: the network table holds %d connections, the hosts %d", when, n, total)
	}
}

// TestConnTableMatchesPerHost drives many hosts on one network through
// seeded dials, accepts, graceful closes, aborts and ResetConns, and
// after every step holds each host's count, connections and demux to a
// per-host reference. A reset must close exactly the host's own
// connections, in flow-key order; removing a stale Conn that shares a
// live one's key must leave the live one registered.
func TestConnTableMatchesPerHost(t *testing.T) {
	resets, graceful := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTableWalk(t, 6)
		for step := 0; step < 250; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := rng.Intn(20); {
			case k < 7:
				src := rng.Intn(len(w.hosts))
				dst := (src + 1 + rng.Intn(len(w.hosts)-1)) % len(w.hosts)
				c := w.hosts[src].Dial(w.hosts[dst].Node().Addr(), 80, Options{})
				w.track(src, c)
			case k < 11:
				w.sched.RunFor(time.Duration(rng.Intn(2000)) * time.Microsecond)
			case k < 13:
				if c := w.anyLive(rng); c != nil {
					c.Close()
				}
			case k < 16:
				if c := w.anyLive(rng); c != nil {
					c.Abort()
				}
			case k < 18:
				h := rng.Intn(len(w.hosts))
				want := w.sortedLive(h)
				w.closed = w.closed[:0]
				w.hosts[h].ResetConns()
				if len(w.closed) != len(want) {
					t.Fatalf("%s: reset of host %d closed %d connections, it held %d", when, h, len(w.closed), len(want))
				}
				for i, c := range w.closed {
					if c != want[i] {
						t.Fatalf("%s: reset of host %d closed %v (host %d) as number %d, want %v", when, h, c.flow, w.hostOf[c], i, want[i].flow)
					}
				}
				if len(want) > 1 {
					resets++
				}
			default:
				if c := w.anyLive(rng); c != nil {
					h := c.host
					h.removeConn(&Conn{host: h, flow: c.flow, slot: c.slot})
				}
			}
			w.check(t, when)
		}
		// Drain: the graceful closes still in flight finish.
		w.sched.RunFor(time.Minute)
		w.check(t, fmt.Sprintf("seed %d drained", seed))
		graceful += w.graceful
	}
	if resets < 20 || graceful == 0 {
		t.Fatalf("walk reset %d hosts holding two or more connections and closed %d gracefully: it did not exercise what it is for", resets, graceful)
	}
}
