package admission

import "time"

// Config assembles a Controller.
type Config struct {
	Queue   QueueConfig
	Limiter LimiterConfig
	// Now supplies the clock (required) — the simulation scheduler's
	// Now in the mesh.
	Now func() time.Duration
}

// Controller is one sidecar's admission state: the bounded two-class
// queue behind the adaptive concurrency limiter. Offer admits, queues,
// or sheds a request; Done releases a slot and pumps the queue.
type Controller struct {
	cfg     Config
	queue   *Queue
	limiter *Limiter
}

// New builds a controller. It panics without a clock: admission
// decisions are meaningless off the simulation timeline.
func New(cfg Config) *Controller {
	if cfg.Now == nil {
		panic("admission: Config.Now is required")
	}
	return &Controller{
		cfg:     cfg,
		queue:   NewQueue(cfg.Queue),
		limiter: NewLimiter(cfg.Limiter),
	}
}

// Queue exposes the controller's queue (telemetry and tests).
func (c *Controller) Queue() *Queue { return c.queue }

// Limiter exposes the controller's limiter (telemetry and tests).
func (c *Controller) Limiter() *Limiter { return c.limiter }

// Offer admits the item immediately when a concurrency slot is free
// and nothing is queued ahead of it, enqueues it otherwise, and sheds
// it when its deadline is exhausted or the queue rejects it. Exactly
// one of it.Run / it.Shed is invoked, possibly later from Done.
func (c *Controller) Offer(it Item) {
	now := c.cfg.Now()
	if it.expired(now) {
		c.queue.shedDeadline++
		it.Shed(ShedDeadline)
		return
	}
	if c.queue.Len() == 0 && c.limiter.Acquire() {
		it.Run()
		return
	}
	c.queue.Push(it, now)
}

// Done completes one admitted request: the slot is released, the
// latency sample feeds the limiter, and freed capacity dispatches
// queued requests (LS first, shedding stale ones on the way out).
func (c *Controller) Done(latency time.Duration, ok bool) {
	c.limiter.Release(latency, ok)
	for c.queue.Len() > 0 {
		if !c.limiter.Acquire() {
			return
		}
		it, served := c.queue.Pop(c.cfg.Now())
		if !served {
			c.limiter.Forget()
			return
		}
		it.Run()
	}
}
