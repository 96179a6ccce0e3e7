package transport

import (
	"math/rand"
	"testing"

	"meshlayer/internal/simnet"
)

// directConn builds a conn with just enough state to unit-test the
// SACK bookkeeping without a network.
func directConn() *Conn {
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	node := n.AddNode("x")
	h := NewHost(node)
	return &Conn{host: h, state: stateEstablished, cc: NewReno(), peerWnd: rcvWindow}
}

func TestApplySacksMarksCoveredSegments(t *testing.T) {
	c := directConn()
	c.segs = []segInfo{
		{seq: 0, length: 1000},
		{seq: 1000, length: 1000},
		{seq: 2000, length: 1000},
		{seq: 3000, length: 500},
	}
	c.applySacks([]SackBlock{{Start: 1000, End: 2000}, {Start: 3000, End: 3500}})
	want := []bool{false, true, false, true}
	for i, w := range want {
		if c.segs[i].sacked != w {
			t.Fatalf("seg %d sacked=%v, want %v", i, c.segs[i].sacked, w)
		}
	}
	// Partial coverage must NOT mark a segment.
	c2 := directConn()
	c2.segs = []segInfo{{seq: 0, length: 1000}}
	c2.applySacks([]SackBlock{{Start: 0, End: 999}})
	if c2.segs[0].sacked {
		t.Fatal("partially covered segment marked sacked")
	}
	// Empty sack list is a no-op.
	c2.applySacks(nil)
}

func TestAddOOOMergesRanges(t *testing.T) {
	c := directConn()
	c.addOOO(1000, 2000)
	c.addOOO(3000, 4000)
	if len(c.cold.ooo) != 2 {
		t.Fatalf("ooo = %v", c.cold.ooo)
	}
	// Bridging range merges all three.
	c.addOOO(2000, 3000)
	if len(c.cold.ooo) != 1 || c.cold.ooo[0].seq != 1000 || c.cold.ooo[0].end != 4000 {
		t.Fatalf("merge failed: %v", c.cold.ooo)
	}
	// Contained duplicate changes nothing.
	c.addOOO(1500, 1800)
	if len(c.cold.ooo) != 1 || c.cold.ooo[0].end != 4000 {
		t.Fatalf("duplicate mutated: %v", c.cold.ooo)
	}
	// Overlapping extension grows the range.
	c.addOOO(3500, 4500)
	if len(c.cold.ooo) != 1 || c.cold.ooo[0].end != 4500 {
		t.Fatalf("extension failed: %v", c.cold.ooo)
	}
	// Insert before the existing range keeps sorted order.
	c.addOOO(100, 200)
	if len(c.cold.ooo) != 2 || c.cold.ooo[0].seq != 100 {
		t.Fatalf("sorted insert failed: %v", c.cold.ooo)
	}
}

func TestMergeOOOAdvancesRcvNxt(t *testing.T) {
	c := directConn()
	c.rcvNxt = 1000
	c.addOOO(1000, 2000)
	c.addOOO(2000, 2500)
	c.mergeOOO()
	if c.rcvNxt != 2500 {
		t.Fatalf("rcvNxt = %d, want 2500", c.rcvNxt)
	}
	if len(c.cold.ooo) != 0 {
		t.Fatalf("residual ooo: %v", c.cold.ooo)
	}
	// A gap stops the merge.
	c.addOOO(3000, 3500)
	c.mergeOOO()
	if c.rcvNxt != 2500 || len(c.cold.ooo) != 1 {
		t.Fatalf("merged across a gap: rcvNxt=%d ooo=%v", c.rcvNxt, c.cold.ooo)
	}
}

func TestRecvBoundDedupAndWatermark(t *testing.T) {
	c := directConn()
	c.addRecvBound(Bound{End: 100, Meta: "a"})
	c.addRecvBound(Bound{End: 100, Meta: "a"}) // duplicate
	c.addRecvBound(Bound{End: 50, Meta: "b"})
	if len(c.recvBounds) != 2 || c.recvBounds[0].End != 50 {
		t.Fatalf("bounds = %v", c.recvBounds)
	}
	// Deliver both, then re-adding them (late retransmit) is ignored.
	c.rcvNxt = 100
	delivered := 0
	c.onMessage = func(any, int) { delivered++ }
	c.deliverReady()
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	c.addRecvBound(Bound{End: 100, Meta: "a"})
	c.addRecvBound(Bound{End: 50, Meta: "b"})
	if len(c.recvBounds) != 0 {
		t.Fatalf("stale bounds re-added: %v", c.recvBounds)
	}
}

func TestSackRetransmitLimitsBurst(t *testing.T) {
	// 10 unsacked segments below a sacked tail: only rtxBurst go out
	// per call.
	c := directConn()
	for i := 0; i < 10; i++ {
		c.segs = append(c.segs, segInfo{seq: uint64(i * 1000), length: 1000})
	}
	c.segs = append(c.segs, segInfo{seq: 10000, length: 1000, sacked: true})
	c.sndUna = 0
	c.sendEnd = 11000
	c.sndNxt = 11000
	before := c.Retransmits()
	c.sackRetransmit()
	if got := c.Retransmits() - before; got != rtxBurst {
		t.Fatalf("retransmitted %d, want %d", got, rtxBurst)
	}
	// Second call repairs the next batch (rtxed ones skipped).
	c.sackRetransmit()
	if got := c.Retransmits() - before; got != 2*rtxBurst {
		t.Fatalf("after second call: %d, want %d", got, 2*rtxBurst)
	}
}

func TestSackRetransmitNoSackNoop(t *testing.T) {
	c := directConn()
	c.segs = []segInfo{{seq: 0, length: 1000}}
	c.sackRetransmit()
	if c.Retransmits() != 0 {
		t.Fatal("retransmitted without any sacked segment")
	}
}

// TestPushSegSlidingWindow prunes from the front and pushes at the back
// as processAck and sendSegment do, against a plain reference slice: the
// window always holds exactly the unacked segments in order, and a
// window that never empties settles into one array.
func TestPushSegSlidingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := directConn()
	var ref []uint64
	check := func(step int) {
		t.Helper()
		segs := c.unacked()
		if len(segs) != len(ref) {
			t.Fatalf("step %d: %d segments, want %d", step, len(segs), len(ref))
		}
		for i, seq := range ref {
			if segs[i].seq != seq {
				t.Fatalf("step %d: segs[%d].seq=%d, want %d", step, i, segs[i].seq, seq)
			}
		}
	}
	var seq uint64
	for step := 0; step < 5000; step++ {
		for n := rng.Intn(12); n > 0; n-- {
			c.pushSeg(segInfo{seq: seq, length: 1})
			ref = append(ref, seq)
			seq++
		}
		cut := rng.Intn(len(ref) + 1)
		c.segHead, ref = c.segHead+int32(cut), ref[cut:]
		check(step)
	}

	c = directConn()
	for i := 0; i < 64; i++ {
		c.pushSeg(segInfo{seq: uint64(i), length: 1})
	}
	steady := func() {
		for i := 0; i < 1000; i++ { // a bulk sender: one acked, one sent
			c.segHead++
			c.pushSeg(segInfo{length: 1})
		}
	}
	steady()
	if n := testing.AllocsPerRun(10, steady); n != 0 {
		t.Fatalf("a standing window of 64 allocates %v per 1000 segments, want 0", n)
	}
}
