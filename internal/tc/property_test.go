package tc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"meshlayer/internal/simnet"
)

// TestPropertyQdiscConservation: for every discipline, packets are
// conserved — everything accepted at Enqueue is eventually returned by
// Dequeue exactly once (no duplication, no loss inside the qdisc).
func TestPropertyQdiscConservation(t *testing.T) {
	build := map[string]func(s *simnet.Scheduler) simnet.Qdisc{
		"fifo": func(s *simnet.Scheduler) simnet.Qdisc { return simnet.NewFIFO(0) },
		"prio": func(s *simnet.Scheduler) simnet.Qdisc {
			return NewPrio(Classifier{
				Filters: []Filter{{Match: MatchMinMark(simnet.MarkHigh), Class: 0}},
				Default: 1,
			}, simnet.NewFIFO(0), simnet.NewFIFO(0))
		},
		"tbf": func(s *simnet.Scheduler) simnet.Qdisc {
			return NewTBF(simnet.Gbps, 100*simnet.MTU, nil, s.Now)
		},
		"nearstrict": func(s *simnet.Scheduler) simnet.Qdisc {
			return NewNearStrict(NearStrictConfig{LinkRate: simnet.Gbps, HighShare: 0.95}, s.Now)
		},
	}
	for name, mk := range build {
		name, mk := name, mk
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			s := simnet.NewScheduler()
			q := mk(s)
			count := 1 + int(n)%100
			accepted := map[uint64]bool{}
			for i := 0; i < count; i++ {
				p := &simnet.Packet{
					ID:   uint64(i + 1),
					Size: 40 + rng.Intn(simnet.MTU-40),
					Mark: simnet.Mark(rng.Intn(3)),
				}
				if q.Enqueue(p) {
					accepted[p.ID] = true
				}
			}
			// Drain, advancing virtual time so shapers release.
			for i := 0; i < 10*count+10; i++ {
				p := q.Dequeue()
				if p == nil {
					if q.Len() == 0 {
						break
					}
					s.RunUntil(s.Now() + time.Millisecond)
					continue
				}
				if !accepted[p.ID] {
					t.Logf("%s: packet %d duplicated or invented", name, p.ID)
					return false
				}
				delete(accepted, p.ID)
			}
			if len(accepted) != 0 {
				t.Logf("%s: %d packets lost inside qdisc", name, len(accepted))
				return false
			}
			if q.Len() != 0 || q.Backlog() != 0 {
				t.Logf("%s: residual len=%d backlog=%d", name, q.Len(), q.Backlog())
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestPropertyBacklogMatchesContents: Backlog always equals the byte
// sum of queued packets across arbitrary interleavings.
func TestPropertyBacklogMatchesContents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := simnet.NewScheduler()
		q := NewPrio(Classifier{
			Filters: []Filter{{Match: MatchMinMark(simnet.MarkHigh), Class: 0}},
			Default: 1,
		}, simnet.NewFIFO(0), simnet.NewFIFO(0))
		_ = s
		inside := 0
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				size := 40 + rng.Intn(1000)
				if q.Enqueue(&simnet.Packet{ID: uint64(i), Size: size, Mark: simnet.Mark(rng.Intn(3))}) {
					inside += size
				}
			} else if p := q.Dequeue(); p != nil {
				inside -= p.Size
			}
			if q.Backlog() != inside {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
