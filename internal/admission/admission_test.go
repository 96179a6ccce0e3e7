package admission

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

type recorder struct {
	ran  int
	shed map[Reason]int
}

func newRecorder() *recorder { return &recorder{shed: map[Reason]int{}} }

// item is an item of class c enqueued at enq, with the deadline expiry
// unless expiry is 0, which these tests use for none.
func (r *recorder) item(c Class, enq, expiry time.Duration) Item {
	return Item{
		Class:     c,
		Enqueued:  enq,
		Expiry:    expiry,
		HasExpiry: expiry != 0,
		Run:       func() { r.ran++ },
		Shed:      func(why Reason) { r.shed[why]++ },
	}
}

func TestQueueServesLSFirst(t *testing.T) {
	q := NewQueue(QueueConfig{})
	var order []Class
	push := func(c Class) {
		q.Push(Item{Class: c, Enqueued: 0,
			Run:  func() { order = append(order, c) },
			Shed: func(Reason) { t.Fatalf("unexpected shed of %v", c) },
		}, 0)
	}
	push(LI)
	push(LS)
	push(LI)
	push(LS)
	for {
		it, ok := q.Pop(ms(1))
		if !ok {
			break
		}
		it.Run()
	}
	want := []Class{LS, LS, LI, LI}
	for i, c := range want {
		if order[i] != c {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueFullShedsLIFirst(t *testing.T) {
	rec := newRecorder()
	q := NewQueue(QueueConfig{Limit: 2})
	q.Push(rec.item(LI, 0, 0), 0)
	q.Push(rec.item(LI, 0, 0), 0)
	// LS arrival displaces the newest LI rather than being shed.
	if !q.Push(rec.item(LS, 0, 0), 0) {
		t.Fatal("LS arrival shed while LI was queued")
	}
	if rec.shed[ShedQueueFull] != 1 {
		t.Fatalf("LI displaced = %d, want 1", rec.shed[ShedQueueFull])
	}
	if q.Depth(LS) != 1 || q.Depth(LI) != 1 {
		t.Fatalf("depths LS=%d LI=%d", q.Depth(LS), q.Depth(LI))
	}
	// LI arrival to a full queue is shed outright.
	if q.Push(rec.item(LI, 0, 0), 0) {
		t.Fatal("LI arrival admitted to a full queue")
	}
	// Another LS displaces the remaining LI; with none left to
	// displace, a full queue sheds even LS — the last resort.
	q.Push(rec.item(LS, 0, 0), 0)
	if q.Push(rec.item(LS, 0, 0), 0) {
		t.Fatal("LS arrival admitted past the bound")
	}
	if rec.shed[ShedQueueFull] != 4 {
		t.Fatalf("total full-queue sheds = %d, want 4", rec.shed[ShedQueueFull])
	}
}

func TestQueueCoDelShedsAfterInterval(t *testing.T) {
	rec := newRecorder()
	q := NewQueue(QueueConfig{Target: ms(5), Interval: ms(100)})
	for i := 0; i < 10; i++ {
		q.Push(rec.item(LI, 0, 0), 0)
	}
	// Sojourn above target but interval not yet elapsed: still served.
	if it, ok := q.Pop(ms(20)); !ok {
		t.Fatal("empty pop")
	} else {
		it.Run()
	}
	if it, ok := q.Pop(ms(60)); !ok {
		t.Fatal("empty pop")
	} else {
		it.Run()
	}
	// Past the armed interval (20+100): shed down to the target.
	it, ok := q.Pop(ms(200))
	if ok {
		it.Run()
	}
	if rec.shed[ShedQueueDelay] != 8 {
		t.Fatalf("delay sheds = %d, want 8 (drained to target)", rec.shed[ShedQueueDelay])
	}
	// Fresh items under target are served again and the state resets.
	q.Push(rec.item(LI, ms(200), 0), ms(200))
	if it, ok := q.Pop(ms(201)); !ok {
		t.Fatal("fresh item not served")
	} else {
		it.Run()
	}
	if rec.ran != 3 {
		t.Fatalf("ran = %d, want 3", rec.ran)
	}
}

func TestQueueLSShedOnlyPastLooseTarget(t *testing.T) {
	rec := newRecorder()
	q := NewQueue(QueueConfig{Target: ms(5), LSTarget: ms(100), Interval: ms(50)})
	for i := 0; i < 4; i++ {
		q.Push(rec.item(LS, 0, 0), 0)
	}
	// 20ms sojourn: far over the LI target but under the LS target —
	// every LS request is served.
	for {
		it, ok := q.Pop(ms(20))
		if !ok {
			break
		}
		it.Run()
	}
	if rec.ran != 4 || rec.shed[ShedQueueDelay] != 0 {
		t.Fatalf("ran=%d sheds=%v; LS must not shed under its target", rec.ran, rec.shed)
	}
	// Past the LS target for a full interval: last resort kicks in.
	for i := 0; i < 4; i++ {
		q.Push(rec.item(LS, ms(100), 0), ms(100))
	}
	if it, ok := q.Pop(ms(250)); ok { // arms the interval
		it.Run()
	}
	if it, ok := q.Pop(ms(350)); ok {
		it.Run()
	}
	if rec.shed[ShedQueueDelay] == 0 {
		t.Fatal("LS never shed even past its loose target")
	}
}

func TestQueueShedsExpiredOnPop(t *testing.T) {
	rec := newRecorder()
	q := NewQueue(QueueConfig{})
	q.Push(rec.item(LS, 0, ms(10)), 0)
	q.Push(rec.item(LS, 0, 0), 0)
	it, ok := q.Pop(ms(20))
	if !ok {
		t.Fatal("live item not served")
	}
	it.Run()
	if rec.shed[ShedDeadline] != 1 || rec.ran != 1 {
		t.Fatalf("deadline sheds = %d ran = %d", rec.shed[ShedDeadline], rec.ran)
	}
	_, _, dl := q.ShedCounts()
	if dl != 1 {
		t.Fatalf("ShedCounts deadline = %d", dl)
	}
}

// fillWindow records one adjustment window (limiterWindow = 32
// samples) of the given latency, taking a slot before each release.
func fillWindow(l *Limiter, latency time.Duration) {
	for i := 0; i < 32; i++ {
		l.Acquire()
		l.Release(latency, true)
	}
}

func TestLimiterGrowsWhenSaturatedAndHealthy(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 2})
	if !l.Acquire() || !l.Acquire() {
		t.Fatal("initial slots unavailable")
	}
	if l.Acquire() {
		t.Fatal("limit not enforced")
	}
	// A window of flat latency while saturated: additive growth, once
	// the 32nd sample closes the window. The second window never hits
	// the raised limit, so no further growth.
	for i := 1; i <= 32; i++ {
		l.Acquire()
		l.Release(ms(10), true)
		want := 2
		if i == 32 {
			want = 3
		}
		if l.Limit() != want {
			t.Fatalf("limit = %d after %d samples, want %d", l.Limit(), i, want)
		}
	}
	fillWindow(l, ms(10))
	if l.Limit() != 3 {
		t.Fatalf("limit = %d, want 3 (one +1 step)", l.Limit())
	}
	if l.NoLoad() != ms(10) {
		t.Fatalf("noload = %v", l.NoLoad())
	}
}

func TestLimiterBacksOffOnLatency(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 20})
	// Establish a 10ms floor.
	fillWindow(l, ms(10))
	before := l.Limit()
	// Latency past the 1.5x tolerance: multiplicative decrease by the
	// gradient, 15ms band / 20ms mean = 0.75.
	fillWindow(l, ms(20))
	if l.Limit() != 15 {
		t.Fatalf("limit = %d, want the 0.75 gradient to take %d to 15", l.Limit(), before)
	}
	// Latency blows far past tolerance: the gradient (15ms band / 40ms
	// mean) is clamped at its 0.5 floor.
	before = l.Limit()
	fillWindow(l, ms(40))
	if l.Limit() >= before {
		t.Fatalf("limit %d did not shrink from %d", l.Limit(), before)
	}
	if l.Limit() != before/2 {
		t.Fatalf("limit = %d, want gradient-floor halving to %d", l.Limit(), before/2)
	}
	if l.EstimatedCapacity() <= 0 {
		t.Fatal("capacity estimate missing")
	}
}

func TestLimiterDoesNotGrowUnsaturated(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 8})
	fillWindow(l, ms(10))
	fillWindow(l, ms(10))
	if l.Limit() != 8 {
		t.Fatalf("limit = %d; must not grow while the limit is not binding", l.Limit())
	}
}

func TestLimiterFailuresReleaseWithoutSample(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 4})
	for i := 0; i < 32; i++ {
		l.Acquire()
		l.Release(ms(1000), false)
	}
	if l.Inflight() != 0 {
		t.Fatalf("inflight = %d", l.Inflight())
	}
	if l.NoLoad() != 0 {
		t.Fatal("failed request contributed a latency sample")
	}
}

func TestControllerAdmitsQueuesAndPumps(t *testing.T) {
	now := time.Duration(0)
	c := New(Config{
		Limiter: LimiterConfig{Initial: 1},
		Now:     func() time.Duration { return now },
	})
	rec := newRecorder()
	c.Offer(rec.item(LS, now, 0))
	if rec.ran != 1 {
		t.Fatal("first offer not admitted immediately")
	}
	c.Offer(rec.item(LI, now, 0))
	c.Offer(rec.item(LS, now, 0))
	if rec.ran != 1 || c.Queue().Len() != 2 {
		t.Fatalf("ran=%d queued=%d", rec.ran, c.Queue().Len())
	}
	// Completion frees the slot; the queued LS runs before the LI.
	now = ms(1)
	c.Done(ms(1), true)
	if rec.ran != 2 || c.Queue().Depth(LS) != 0 || c.Queue().Depth(LI) != 1 {
		t.Fatalf("pump order wrong: ran=%d LS=%d LI=%d", rec.ran, c.Queue().Depth(LS), c.Queue().Depth(LI))
	}
	now = ms(2)
	c.Done(ms(1), true)
	if rec.ran != 3 || c.Queue().Len() != 0 {
		t.Fatalf("queue not drained: ran=%d len=%d", rec.ran, c.Queue().Len())
	}
	// Inflight bookkeeping survived the pump cycles.
	if got := c.Limiter().Inflight(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
}

func TestControllerShedsExpiredOnOffer(t *testing.T) {
	now := ms(100)
	c := New(Config{Now: func() time.Duration { return now }})
	rec := newRecorder()
	c.Offer(rec.item(LS, now, ms(50)))
	if rec.shed[ShedDeadline] != 1 || rec.ran != 0 {
		t.Fatalf("expired offer not shed: %+v", rec.shed)
	}

	// A deadline of 0 at time 0 is spent too; only HasExpiry says
	// whether an item has a deadline.
	now = 0
	spent := rec.item(LS, now, 0)
	spent.HasExpiry = true
	c.Offer(spent)
	if rec.shed[ShedDeadline] != 2 || rec.ran != 0 {
		t.Fatalf("a deadline of 0 offered at time 0 not shed: %+v", rec.shed)
	}
	c.Offer(rec.item(LS, now, 0))
	if rec.ran != 1 {
		t.Fatal("an item with no deadline not admitted")
	}
}

func TestControllerRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock accepted")
		}
	}()
	New(Config{})
}
