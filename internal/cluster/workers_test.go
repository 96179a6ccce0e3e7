package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// refPool is WorkerPool as it was with a plain slice popped by
// q = q[1:]: the reference TestWorkerPoolMatchesSlice compares against.
type refPool struct {
	sched    *simnet.Scheduler
	capacity int
	busy     int
	queue    []queued
}

func (w *refPool) Run(serviceTime time.Duration, fn func()) {
	if w.busy < w.capacity {
		w.start(serviceTime, fn)
		return
	}
	w.queue = append(w.queue, queued{serviceTime, fn})
}

func (w *refPool) start(serviceTime time.Duration, fn func()) {
	w.busy++
	w.sched.After(serviceTime, func() {
		w.busy--
		fn()
		w.drain()
	})
}

func (w *refPool) drain() {
	for w.busy < w.capacity && len(w.queue) > 0 {
		q := w.queue[0]
		w.queue = w.queue[1:]
		w.start(q.serviceTime, q.fn)
	}
}

// TestWorkerPoolMatchesSlice replays one random script of submissions —
// some made from inside a finishing job, which runs before the pool
// drains its queue — on a WorkerPool and on the slice-popped reference,
// and requires the same completions at the same virtual times.
func TestWorkerPoolMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		run := func(pool func(*simnet.Scheduler) func(time.Duration, func())) []string {
			rng := rand.New(rand.NewSource(seed))
			s := simnet.NewScheduler()
			submit := pool(s)
			var log []string
			var job func(id int) func()
			job = func(id int) func() {
				return func() {
					log = append(log, fmt.Sprintf("%d@%v", id, s.Now()))
					if rng.Intn(4) == 0 {
						submit(time.Duration(1+rng.Intn(5))*time.Millisecond, job(1000+id))
					}
				}
			}
			for i := 0; i < 200; i++ {
				at := time.Duration(rng.Intn(100)) * time.Millisecond
				svc := time.Duration(1+rng.Intn(10)) * time.Millisecond
				id := i
				s.After(at, func() { submit(svc, job(id)) })
			}
			s.Run()
			return log
		}
		got := run(func(s *simnet.Scheduler) func(time.Duration, func()) { return NewWorkerPool(s, 3).Run })
		want := run(func(s *simnet.Scheduler) func(time.Duration, func()) {
			return (&refPool{sched: s, capacity: 3}).Run
		})
		if len(got) < 200 || !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: pool ran %d jobs, reference %d; they part at completion %d", seed, len(got), len(want), i)
		}
	}
}
