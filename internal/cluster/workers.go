package cluster

import (
	"time"

	"meshlayer/internal/simnet"
)

// WorkerPool bounds concurrent execution inside a pod: each Run
// occupies one worker for its service time; excess work queues FIFO.
// It is the compute analogue of the network queues — under overload,
// requests wait here, which is exactly the queueing the paper's §5
// "other resources beyond the network" remark points at.
type WorkerPool struct {
	sched *simnet.Scheduler
	// capacity (<= 0: unbounded) and busy are 32-bit so the pool, one
	// per pod, stays in the 64-byte size class beside its queue.
	capacity, busy int32
	queue          simnet.Queue[queued]

	peakQueue int
	executed  uint64
}

type queued struct {
	serviceTime time.Duration
	fn          func()
}

// NewWorkerPool returns a pool with the given concurrency.
func NewWorkerPool(sched *simnet.Scheduler, capacity int) *WorkerPool {
	return &WorkerPool{sched: sched, capacity: int32(capacity)}
}

// Run acquires a worker (queueing if none free), holds it for
// serviceTime, then invokes fn and releases the worker.
func (w *WorkerPool) Run(serviceTime time.Duration, fn func()) {
	if w.capacity <= 0 {
		w.executed++
		w.sched.After(serviceTime, fn)
		return
	}
	if w.busy < w.capacity {
		w.start(serviceTime, fn)
		return
	}
	w.queue.Push(queued{serviceTime, fn})
	if w.queue.Len() > w.peakQueue {
		w.peakQueue = w.queue.Len()
	}
}

func (w *WorkerPool) start(serviceTime time.Duration, fn func()) {
	w.busy++
	w.executed++
	w.sched.After(serviceTime, func() {
		w.busy--
		fn()
		w.drain()
	})
}

func (w *WorkerPool) drain() {
	for w.busy < w.capacity && w.queue.Len() > 0 {
		q := w.queue.Pop()
		w.start(q.serviceTime, q.fn)
	}
}

// Busy returns the number of occupied workers.
func (w *WorkerPool) Busy() int { return int(w.busy) }

// Capacity returns the pool's concurrency bound (0 = unbounded).
func (w *WorkerPool) Capacity() int {
	if w.capacity <= 0 {
		return 0
	}
	return int(w.capacity)
}

// QueueLen returns the number of queued (not yet started) executions.
func (w *WorkerPool) QueueLen() int { return w.queue.Len() }

// PeakQueue returns the high-water mark of the queue.
func (w *WorkerPool) PeakQueue() int { return w.peakQueue }

// Executed returns the number of executions started.
func (w *WorkerPool) Executed() uint64 { return w.executed }
