package tc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// refTBF is the token-bucket filter NearStrict's high class once was,
// as it was before refill learned to skip a full bucket: every refill
// does the float update and then caps it. TestTBFMatchesReference holds
// the high class to it bit for bit.
type refTBF struct {
	rate   int64
	burst  int64
	inner  simnet.Qdisc
	clock  Clock
	tokens float64
	last   time.Duration
	head   *simnet.Packet
}

func newRefTBF(rate, burst int64, inner simnet.Qdisc, clock Clock) *refTBF {
	if burst < simnet.MTU {
		burst = simnet.MTU
	}
	return &refTBF{rate: rate, burst: burst, inner: inner, clock: clock, tokens: float64(burst)}
}

func (q *refTBF) refill(now time.Duration) {
	if now <= q.last {
		return
	}
	elapsed := now - q.last
	q.last = now
	q.tokens += float64(q.rate) / 8 * elapsed.Seconds()
	if q.tokens > float64(q.burst) {
		q.tokens = float64(q.burst)
	}
}

func (q *refTBF) Enqueue(p *simnet.Packet) bool { return q.inner.Enqueue(p) }

func (q *refTBF) Dequeue() *simnet.Packet {
	q.refill(q.clock())
	if q.head == nil {
		q.head = q.inner.Dequeue()
	}
	if q.head == nil {
		return nil
	}
	need := float64(q.head.Size)
	if q.tokens < need {
		return nil
	}
	q.tokens -= need
	p := q.head
	q.head = nil
	return p
}

func (q *refTBF) NextWake(now time.Duration) (time.Duration, bool) {
	q.refill(now)
	if q.head == nil && q.inner.Len() == 0 {
		return 0, false
	}
	size := simnet.MTU
	if q.head != nil {
		size = q.head.Size
	}
	deficit := float64(size) - q.tokens
	if deficit <= 0 {
		return now, true
	}
	wait := time.Duration(deficit * 8 / float64(q.rate) * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	return now + wait, true
}

// TestTBFMatchesReference drives NearStrict's high class and refTBF
// with the same random Enqueue, Dequeue and NextWake calls at random
// times, over random link rates and shares, and requires the same
// result from every call and the same token count, to the bit, after
// it.
func TestTBFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		link := int64(math.Exp(rng.Float64()*math.Log(1e11/1e3)) * 1e3) // 1 kbps .. 100 Gbps
		share := 0.05 + 0.95*rng.Float64()
		var now time.Duration
		clock := func() time.Duration { return now }
		got := NewNearStrict(NearStrictConfig{LinkRate: link, HighShare: share}, clock)
		rate := got.rate
		want := newRefTBF(rate, highBurst, simnet.NewFIFO(0), clock)
		for step := 0; step < 300; step++ {
			// Advance by the time it takes to earn 0, up to 2, up to
			// 100 or up to 2×burst bytes, so the bucket is seen empty,
			// one byte short of full, and refilled far past it; two
			// trials in three scale that down, so draws outpace the
			// refill and packets wait on the bucket.
			earn := [4]float64{0, 2, 100, 2 * highBurst}[rng.Intn(4)] * [3]float64{1, 0.1, 0.01}[trial%3]
			now += time.Duration(rng.Float64() * earn * 8 / float64(rate) * float64(time.Second))
			var g, w any
			switch rng.Intn(3) {
			case 0:
				p := &simnet.Packet{ID: uint64(step), Size: 40 + rng.Intn(simnet.MTU-39), Mark: simnet.MarkHigh}
				g, w = got.Enqueue(p), want.Enqueue(p)
			case 1:
				g, w = got.Dequeue(), want.Dequeue()
			case 2:
				gat, gok := got.NextWake(now)
				wat, wok := want.NextWake(now)
				g, w = [2]any{gat, gok}, [2]any{wat, wok}
			}
			if g != w {
				t.Fatalf("trial %d (rate %d), step %d at %v: NearStrict returned %v, reference %v", trial, rate, step, now, g, w)
			}
			if math.Float64bits(got.tokens) != math.Float64bits(want.tokens) || got.last != want.last {
				t.Fatalf("trial %d (rate %d), step %d at %v: tokens %v last %v, reference %v last %v",
					trial, rate, step, now, got.tokens, got.last, want.tokens, want.last)
			}
		}
	}
}
