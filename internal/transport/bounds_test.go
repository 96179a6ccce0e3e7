package transport

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// TestSegmentBoundsMatchReference checks where messages end on the wire
// against the test's own list of what it sent. Seeded mixes of sub-MSS
// messages (pipelined: several end inside one segment) and multi-MSS
// ones cross a link that loses and reorders data and loses ACKs, so the
// run has first transmissions, SACK repairs, partial-ack repairs and RTO
// retransmissions. Every DATA segment must carry exactly the ends inside
// (Seq, Seq+Len] and every FIN none — when the sender puts it on the
// wire, and again when the receiver gets it, by which time later ACKs
// have moved the sender's list under a delayed or duplicate segment.
func TestSegmentBoundsMatchReference(t *testing.T) {
	var rtx, timeouts, sackAcks, multi, fins uint64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, simnet.LinkConfig{Rate: 20 * simnet.Mbps, Delay: time.Millisecond})
		a2b, b2a := p.ha.Node().NICs()[0], p.hb.Node().NICs()[0]
		a2b.Impair(simnet.Impairment{LossProb: 0.06, JitterMax: 3 * time.Millisecond, Seed: seed})
		b2a.Impair(simnet.Impairment{LossProb: 0.04, Seed: seed + 100})

		// The reference: message i ends at stream offset ends[i].
		var ends []uint64
		var sizes []int
		var c *Conn
		check := func(where string, pkt *simnet.Packet) {
			seg, ok := pkt.Payload.(*Segment)
			if !ok || (seg.Kind != SegDATA && seg.Kind != SegFIN) {
				return
			}
			var want []Bound
			if seg.Kind == SegDATA {
				for i, e := range ends {
					if e > seg.Seq && e <= seg.Seq+uint64(seg.Len) {
						want = append(want, Bound{End: e, Meta: i})
					}
				}
			}
			if !slices.Equal(seg.Bounds, want) {
				t.Fatalf("seed %d, %s: %v [%d,+%d) carries %v, want %v", seed, where, seg.Kind, seg.Seq, seg.Len, seg.Bounds, want)
			}
			if len(want) > 1 {
				multi++
			}
			if seg.Kind == SegFIN {
				fins++
			}
		}
		// The sender's list of queued ends is the reference above sndUna.
		checkQueued := func(where string) {
			var want []Bound
			for i, e := range ends {
				if e > c.sndUna {
					want = append(want, Bound{End: e, Meta: i})
				}
			}
			if !slices.Equal(c.bounds, want) {
				t.Fatalf("seed %d, %s: sndUna=%d, ends queued %v, want %v", seed, where, c.sndUna, c.bounds, want)
			}
		}
		var got []int
		p.hb.Listen(80, func(sc *Conn) {
			sc.SetOnMessage(func(meta any, size int) {
				i := meta.(int)
				if i != len(got) || size != sizes[i] {
					t.Fatalf("seed %d: delivery %d is message %d with %d bytes, want message %d with %d", seed, len(got), i, size, len(got), sizes[len(got)])
				}
				got = append(got, i)
			})
		})
		c = p.ha.Dial(p.hb.Node().Addr(), 80, Options{MinRTO: 20 * time.Millisecond})
		a2b.SetTap(func(pkt *simnet.Packet, _ time.Duration) {
			check("sent", pkt)
			checkQueued("at a send")
		})
		b2a.SetTap(func(pkt *simnet.Packet, _ time.Duration) {
			if seg, ok := pkt.Payload.(*Segment); ok && len(seg.Sacks) > 0 {
				sackAcks++
			}
		})
		p.hb.Node().SetDeliver(func(pkt *simnet.Packet) {
			check("received", pkt)
			p.hb.deliver(pkt)
		})

		// Batches: the first queues before the handshake completes, later
		// ones land on a connection that is mid-recovery or window-limited,
		// so small messages share segments with their neighbours.
		const batches = 8
		for b := 0; b < batches; b++ {
			b := b
			n := 3 + rng.Intn(8)
			batch := make([]int, n)
			for i := range batch {
				if rng.Intn(5) < 3 {
					batch[i] = 1 + rng.Intn(400)
				} else {
					batch[i] = MSS + 1 + rng.Intn(20000)
				}
			}
			p.sched.After(time.Duration(b)*7*time.Millisecond, func() {
				for _, size := range batch {
					var last uint64
					if len(ends) > 0 {
						last = ends[len(ends)-1]
					}
					ends = append(ends, last+uint64(size))
					sizes = append(sizes, size)
					if err := c.SendMessage(len(ends)-1, size); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				if b == batches-1 {
					c.Close()
				}
			})
		}
		p.sched.RunUntil(2 * time.Minute)

		if len(got) != len(ends) {
			t.Fatalf("seed %d: delivered %d of %d messages", seed, len(got), len(ends))
		}
		checkQueued("at the end")
		rtx += c.Retransmits()
		timeouts += c.Timeouts()
	}
	// The run must have been through what it claims to cover.
	if rtx == 0 || timeouts == 0 || sackAcks == 0 || multi == 0 || fins == 0 {
		t.Fatalf("retransmits=%d timeouts=%d SACK-bearing ACKs=%d multi-end segments=%d FINs=%d; all must be > 0", rtx, timeouts, sackAcks, multi, fins)
	}
}
