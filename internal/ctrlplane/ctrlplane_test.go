package ctrlplane

import (
	"slices"
	"testing"
	"time"

	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
)

// fakeTransport delivers each push after delay by applying it to the
// subscriber's snapshot, unless the subscriber is marked down (lost
// connection) or forced to NACK.
type fakeTransport struct {
	sched *simnet.Scheduler
	delay time.Duration
	snaps map[string]*Snapshot
	down  map[string]bool
	nack  map[string]bool

	pushes []*Update
}

func newFakeTransport(sched *simnet.Scheduler, delay time.Duration) *fakeTransport {
	return &fakeTransport{
		sched: sched, delay: delay,
		snaps: make(map[string]*Snapshot),
		down:  make(map[string]bool),
		nack:  make(map[string]bool),
	}
}

func (f *fakeTransport) Push(sub string, u *Update, done func(bool, error)) {
	f.pushes = append(f.pushes, u)
	f.sched.After(f.delay, func() {
		switch {
		case f.down[sub]:
			done(false, ErrPushTimeout)
		case f.nack[sub]:
			done(false, nil)
		default:
			done(f.snaps[sub].Apply(u), nil)
		}
	})
}

func newTestServer(t *testing.T, full bool) (*simnet.Scheduler, *fakeTransport, *Server) {
	t.Helper()
	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	srv := NewServer(Config{
		Sched: sched, Transport: tr, Metrics: metrics.NewRegistry(),
		Debounce: 50 * time.Millisecond, FullState: full, ResyncDelay: 200 * time.Millisecond,
	})
	return sched, tr, srv
}

func subscribe(tr *fakeTransport, srv *Server, name string) *Snapshot {
	snap := NewSnapshot()
	tr.snaps[name] = snap
	snap.Apply(srv.Subscribe(name))
	return snap
}

func TestBootstrapAndDebouncedDelta(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	srv.SetResource("b", "b1", 100)
	sched.RunFor(time.Second)
	if len(tr.pushes) != 0 {
		t.Fatalf("pushes before any subscriber: %d", len(tr.pushes))
	}

	snap := subscribe(tr, srv, "s1")
	if snap.Version != srv.Version() || snap.Get("a") != "a1" {
		t.Fatalf("bootstrap snapshot: version=%d want %d a=%v", snap.Version, srv.Version(), snap.Get("a"))
	}

	// Two changes inside one debounce window coalesce into one delta
	// carrying only the changed resource.
	srv.SetResource("a", "a2", 100)
	srv.SetResource("a", "a3", 100)
	sched.RunFor(time.Second)
	if len(tr.pushes) != 1 {
		t.Fatalf("pushes = %d, want 1 coalesced delta", len(tr.pushes))
	}
	u := tr.pushes[0]
	if u.Full || len(u.Resources) != 1 || u.Resources[0].Name != "a" {
		t.Fatalf("expected delta with only a, got %+v", u)
	}
	if snap.Get("a") != "a3" || snap.Version != srv.Version() {
		t.Fatalf("snapshot not converged: a=%v version=%d", snap.Get("a"), snap.Version)
	}
	if st := srv.Stats(); st.DeltaPushes != 1 || st.Acks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFullStateMode(t *testing.T) {
	sched, tr, srv := newTestServer(t, true)
	srv.SetResource("a", "a1", 100)
	srv.SetResource("b", "b1", 100)
	snap := subscribe(tr, srv, "s1")

	srv.SetResource("a", "a2", 100)
	sched.RunFor(time.Second)
	if len(tr.pushes) != 1 || !tr.pushes[0].Full || len(tr.pushes[0].Resources) != 2 {
		t.Fatalf("expected one full push with 2 resources, got %+v", tr.pushes)
	}
	if snap.Get("a") != "a2" || snap.Get("b") != "b1" {
		t.Fatalf("snapshot after full push: a=%v b=%v", snap.Get("a"), snap.Get("b"))
	}
}

func TestNackTriggersFullResync(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	snap := subscribe(tr, srv, "s1")

	tr.nack["s1"] = true
	srv.SetResource("a", "a2", 100)
	sched.RunFor(100 * time.Millisecond) // delta push -> NACK -> backoff
	tr.nack["s1"] = false
	sched.RunFor(time.Second) // resync

	if snap.Get("a") != "a2" {
		t.Fatalf("snapshot not recovered after NACK: a=%v", snap.Get("a"))
	}
	last := tr.pushes[len(tr.pushes)-1]
	if !last.Full {
		t.Fatalf("recovery push was not full: %+v", last)
	}
	st := srv.Stats()
	if st.Nacks != 1 || st.Resyncs != 1 {
		t.Fatalf("stats = %+v, want 1 nack + 1 resync", st)
	}
}

func TestLostConnectionResyncsOnReconnect(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	snap := subscribe(tr, srv, "s1")

	tr.down["s1"] = true
	srv.SetResource("a", "a2", 100)
	sched.RunFor(3 * time.Second)
	if snap.Get("a") != "a1" {
		t.Fatalf("snapshot advanced while down")
	}
	before := len(tr.pushes)
	if before < 2 {
		t.Fatalf("no retries while down: %d pushes", before)
	}

	tr.down["s1"] = false
	sched.RunFor(time.Second)
	if snap.Get("a") != "a2" || snap.Version != srv.Version() {
		t.Fatalf("snapshot not resynced after reconnect: a=%v", snap.Get("a"))
	}
	if st := srv.Stats(); st.Timeouts == 0 {
		t.Fatalf("stats = %+v, want timeouts > 0", st)
	}
}

func TestHoldSuppressesPushes(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	snap := subscribe(tr, srv, "s1")

	srv.SetHold(10 * time.Second)
	srv.SetResource("a", "a2", 100)
	sched.RunFor(2 * time.Second)
	if len(tr.pushes) != 0 {
		t.Fatalf("push escaped the hold")
	}
	if lag := srv.MaxLag(); lag == 0 {
		t.Fatalf("lag should accumulate under hold")
	}

	srv.SetHold(0)
	sched.RunFor(time.Second)
	if snap.Get("a") != "a2" {
		t.Fatalf("snapshot not updated after hold lifted: a=%v", snap.Get("a"))
	}
	if srv.Stats().MaxLag == 0 {
		t.Fatalf("MaxLag stat not recorded")
	}
}

func TestChangeDuringInflightCoalesces(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	snap := subscribe(tr, srv, "s1")

	srv.SetResource("a", "a2", 100)
	// The first delta departs at the debounce edge (50ms) and is in
	// flight for 10ms; stage another change while it flies.
	sched.RunFor(55 * time.Millisecond)
	srv.SetResource("b", "b1", 100)
	sched.RunFor(time.Second)
	if snap.Get("a") != "a2" || snap.Get("b") != "b1" {
		t.Fatalf("snapshot incomplete: a=%v b=%v", snap.Get("a"), snap.Get("b"))
	}
	if snap.Version != srv.Version() {
		t.Fatalf("subscriber stuck at %d, server at %d", snap.Version, srv.Version())
	}
}

// A delta from another base is NACKed and leaves the snapshot as it
// was — version and contents; the delta from its own base installs the
// server's state, and a full update applies whatever the base.
func TestSnapshotNacksBaseMismatch(t *testing.T) {
	_, _, srv := newTestServer(t, false)
	srv.SetResource("a", 1, 100)
	srv.SetResource("b", 2, 100)
	snap := NewSnapshot()
	if !snap.Apply(srv.Subscribe("s1")) || snap.Version != 2 {
		t.Fatalf("bootstrap: version=%d", snap.Version)
	}
	srv.SetResource("a", 3, 100)
	srv.SetResource("b", 4, 100)
	if snap.Apply(srv.buildUpdate(&subscriber{synced: true, version: 3})) {
		t.Fatalf("delta from base 3 applied to a snapshot at 2")
	}
	if snap.Version != 2 || snap.Get("a") != 1 || snap.Get("b") != 2 {
		t.Fatalf("NACKed delta changed the snapshot: version=%d a=%v b=%v", snap.Version, snap.Get("a"), snap.Get("b"))
	}
	if !snap.Apply(srv.buildUpdate(&subscriber{synced: true, version: 2})) {
		t.Fatalf("delta from the snapshot's own base rejected")
	}
	if snap.Version != 4 || snap.Get("a") != 3 || snap.Get("b") != 4 {
		t.Fatalf("delta not applied: version=%d a=%v b=%v", snap.Version, snap.Get("a"), snap.Get("b"))
	}
	srv.SetResource("b", 5, 100)
	old := NewSnapshot()
	if !old.Apply(srv.fullUpdate()) || old.Version != 5 || old.Get("a") != 3 || old.Get("b") != 5 {
		t.Fatalf("full update on an empty snapshot: version=%d a=%v b=%v", old.Version, old.Get("a"), old.Get("b"))
	}
}

// syncTransport applies each push and calls done before Push returns,
// which the Transport contract allows: every ack re-enters admit (and,
// with a resync cap, admitResyncs) in the middle of the outer loop.
type syncTransport struct {
	snaps map[string]*Snapshot
	order []string
}

func (f *syncTransport) Push(sub string, u *Update, done func(bool, error)) {
	f.order = append(f.order, sub)
	done(f.snaps[sub].Apply(u), nil)
}

// With a synchronous transport a resync wave and the delta round after
// it still push each subscriber exactly once, in subscription order,
// and leave both queues and both slot counts empty.
func TestAdmitReentrantTransport(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	for _, caps := range [][2]int{{0, 0}, {0, 2}, {2, 2}, {3, 0}} {
		sched := simnet.NewScheduler()
		tr := &syncTransport{snaps: make(map[string]*Snapshot)}
		srv := NewServer(Config{
			Sched: sched, Transport: tr, Debounce: 10 * time.Millisecond,
			MaxInflightPushes: caps[0], MaxConcurrentResyncs: caps[1],
		})
		srv.SetResource("a", "a1", 100)
		for _, n := range names {
			tr.snaps[n] = NewSnapshot()
			tr.snaps[n].Apply(srv.Subscribe(n))
		}
		srv.Crash()
		srv.SetResource("a", "a2", 100)
		srv.Recover()
		sched.RunFor(time.Second)
		srv.SetResource("b", "b1", 100)
		sched.RunFor(time.Second)

		want := append(slices.Clone(names), names...)
		if !slices.Equal(tr.order, want) {
			t.Fatalf("caps %v: push order %v, want %v", caps, tr.order, want)
		}
		for _, n := range names {
			if !srv.Current(n) || tr.snaps[n].Get("a") != "a2" || tr.snaps[n].Get("b") != "b1" {
				t.Fatalf("caps %v: %s not converged", caps, n)
			}
		}
		if srv.pushQ.Len() != 0 || srv.resyncQ.Len() != 0 || srv.inflightN != 0 || srv.resyncN != 0 {
			t.Fatalf("caps %v: queues %d/%d, slots %d/%d after drain", caps,
				srv.pushQ.Len(), srv.resyncQ.Len(), srv.inflightN, srv.resyncN)
		}
	}
}

// Two subscribers must be pushed in subscription order every flush —
// the determinism contract the golden checks rely on.
func TestPushOrderIsSubscriptionOrder(t *testing.T) {
	sched := simnet.NewScheduler()
	var order []string
	tr := newFakeTransport(sched, time.Millisecond)
	srv := NewServer(Config{Sched: sched, Transport: orderedTransport{tr, &order}, Debounce: 10 * time.Millisecond})
	snapB := NewSnapshot()
	tr.snaps["b"] = snapB
	snapB.Apply(srv.Subscribe("b"))
	snapA := NewSnapshot()
	tr.snaps["a"] = snapA
	snapA.Apply(srv.Subscribe("a"))

	srv.SetResource("x", 1, 10)
	sched.RunFor(time.Second)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("push order = %v, want [b a]", order)
	}
}

type orderedTransport struct {
	inner *fakeTransport
	order *[]string
}

func (o orderedTransport) Push(sub string, u *Update, done func(bool, error)) {
	*o.order = append(*o.order, sub)
	o.inner.Push(sub, u, done)
}

// timedTransport records the virtual send time of every push.
type timedTransport struct {
	inner *fakeTransport
	times *[]time.Duration
}

func (o timedTransport) Push(sub string, u *Update, done func(bool, error)) {
	*o.times = append(*o.times, o.inner.sched.Now())
	o.inner.Push(sub, u, done)
}

// The full NACK recovery sequence, with exact virtual timings: delta ->
// NACK -> exponential backoff (200, 400, 800ms) -> full resync -> ack,
// and the attempt counter resets on ack so the next failure backs off
// from the base delay again.
func TestNackBackoffResyncAckSequence(t *testing.T) {
	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	var times []time.Duration
	srv := NewServer(Config{
		Sched: sched, Transport: timedTransport{tr, &times},
		Debounce: 50 * time.Millisecond, ResyncDelay: 200 * time.Millisecond,
		ResyncMax: 1600 * time.Millisecond,
	})
	srv.SetResource("a", "a1", 100)
	snap := subscribe(tr, srv, "s1") // bootstraps at v1: later fulls are resyncs
	tr.nack["s1"] = true
	srv.SetResource("a", "a2", 100)
	sched.RunFor(time.Second)
	tr.nack["s1"] = false
	sched.RunFor(time.Second)

	// Delta departs at the debounce edge (50ms) and NACKs at 60ms; the
	// retries back off 200, 400, 800ms from each failure.
	want := []time.Duration{
		50 * time.Millisecond,   // delta -> NACK at 60ms
		260 * time.Millisecond,  // full resync -> NACK at 270ms
		670 * time.Millisecond,  // backoff doubled -> NACK at 680ms
		1480 * time.Millisecond, // doubled again -> ack
	}
	if len(times) != len(want) {
		t.Fatalf("push times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("push %d at %v, want %v (all: %v)", i, times[i], want[i], times)
		}
	}
	if tr.pushes[0].Full || !tr.pushes[len(tr.pushes)-1].Full {
		t.Fatalf("want delta first and full resync last: %+v", tr.pushes)
	}
	if snap.Get("a") != "a2" || !srv.Current("s1") {
		t.Fatalf("not converged after recovery: a=%v", snap.Get("a"))
	}

	// The ack reset the attempt counter: the next failure's retry uses
	// the base 200ms delay, not the backed-off 1600ms.
	tr.nack["s1"] = true
	srv.SetResource("a", "a3", 100)
	sched.RunFor(70 * time.Millisecond) // delta departs + NACKs
	tr.nack["s1"] = false
	sched.RunFor(time.Second)
	n := len(times)
	if gap := times[n-1] - times[n-2]; gap != 210*time.Millisecond {
		t.Fatalf("post-ack retry gap = %v, want 210ms (base delay again)", gap)
	}
	st := srv.Stats()
	if st.Nacks != 4 || st.Resyncs != 4 || st.Acks != 2 {
		t.Fatalf("stats = %+v, want 4 nacks, 4 resyncs, 2 acks", st)
	}
}

// SetHold mid-flight must not disturb the in-flight push, and changes
// staged under the hold stay unpushed until it lifts.
func TestHoldDuringInflightPush(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	snap := subscribe(tr, srv, "s1")

	srv.SetResource("a", "a2", 100)
	sched.RunFor(55 * time.Millisecond) // delta in flight (50ms..60ms)
	srv.SetHold(10 * time.Second)
	srv.SetResource("b", "b1", 100)
	sched.RunFor(2 * time.Second)
	if len(tr.pushes) != 1 {
		t.Fatalf("pushes under hold = %d, want just the in-flight delta", len(tr.pushes))
	}
	if snap.Get("a") != "a2" || snap.Get("b") != nil {
		t.Fatalf("in-flight delta lost or held change leaked: a=%v b=%v", snap.Get("a"), snap.Get("b"))
	}
	srv.SetHold(0)
	sched.RunFor(time.Second)
	if snap.Get("b") != "b1" || !srv.Current("s1") {
		t.Fatalf("held change not delivered after release: b=%v", snap.Get("b"))
	}
}

// OnSynced fires exactly once per catch-up: not on the bootstrap, not
// on an ack that leaves the subscriber behind, once when it reaches the
// current version.
func TestOnSyncedExactlyOncePerCatchup(t *testing.T) {
	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	synced := make(map[string]int)
	srv := NewServer(Config{
		Sched: sched, Transport: tr, Debounce: 50 * time.Millisecond,
		ResyncDelay: 200 * time.Millisecond,
		OnSynced:    func(name string) { synced[name]++ },
	})
	subscribe(tr, srv, "s1")
	if len(synced) != 0 {
		t.Fatalf("OnSynced fired on bootstrap: %v", synced)
	}
	srv.SetResource("a", "a1", 100)
	sched.RunFor(time.Second)
	if synced["s1"] != 1 {
		t.Fatalf("OnSynced count = %d after one push, want 1", synced["s1"])
	}
	// A change staged while the push is in flight: the first ack leaves
	// the subscriber behind (no OnSynced), the follow-up completes the
	// catch-up (one OnSynced).
	srv.SetResource("a", "a2", 100)
	sched.RunFor(55 * time.Millisecond)
	srv.SetResource("b", "b1", 100)
	sched.RunFor(time.Second)
	if synced["s1"] != 2 {
		t.Fatalf("OnSynced count = %d after coalesced catch-up, want 2", synced["s1"])
	}
}

// A version bump with nothing to deliver (every change already seen
// from this subscriber's view) fast-forwards the subscriber without a
// push and still fires OnSynced.
func TestEmptyDeltaFastForwards(t *testing.T) {
	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	synced := 0
	srv := NewServer(Config{
		Sched: sched, Transport: tr, Debounce: 50 * time.Millisecond,
		OnSynced: func(string) { synced++ },
	})
	srv.SetResource("a", "a1", 100)
	subscribe(tr, srv, "s1")

	// A version advance with no resource payload from s1's view (a
	// change staged and reverted within one epoch of history).
	srv.version++
	srv.stage()
	sched.RunFor(time.Second)
	if len(tr.pushes) != 0 {
		t.Fatalf("empty delta was pushed: %+v", tr.pushes)
	}
	if !srv.Current("s1") || srv.SubscriberVersion("s1") != srv.Version() {
		t.Fatalf("subscriber not fast-forwarded: at %d, server %d", srv.SubscriberVersion("s1"), srv.Version())
	}
	if synced != 1 {
		t.Fatalf("OnSynced count = %d, want 1", synced)
	}
}

// Crash/recovery: in-flight acks from the dead process's epoch are
// ignored, Subscribe while down returns no bootstrap, and Recover
// full-resyncs every subscriber — including the one that joined during
// the outage.
func TestCrashRecoveryResyncsEveryone(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	s1 := subscribe(tr, srv, "s1")
	s2 := subscribe(tr, srv, "s2")

	srv.SetResource("a", "a2", 100)
	sched.RunFor(55 * time.Millisecond) // both deltas in flight
	srv.Crash()
	if !srv.Down() || srv.Epoch() != 1 {
		t.Fatalf("down=%v epoch=%d after crash", srv.Down(), srv.Epoch())
	}
	sched.RunFor(time.Second) // transport settles into the dead epoch
	if st := srv.Stats(); st.Acks != 0 {
		t.Fatalf("ack from the pre-crash epoch was counted: %+v", st)
	}

	// A pod restarted during the outage: registered, no bootstrap, and
	// it keeps whatever snapshot it had (static stability).
	s3 := NewSnapshot()
	tr.snaps["s3"] = s3
	if u := srv.Subscribe("s3"); u != nil {
		t.Fatalf("Subscribe while down returned a bootstrap: %+v", u)
	}
	// Changes staged while down stay local.
	srv.SetResource("b", "b1", 100)
	sched.RunFor(time.Second)
	if got := len(tr.pushes); got != 2 {
		t.Fatalf("pushes while down: %d, want the 2 pre-crash deltas", got)
	}

	srv.Recover()
	if srv.UnsyncedCount() != 3 {
		t.Fatalf("unsynced after recover = %d, want all 3", srv.UnsyncedCount())
	}
	sched.RunFor(time.Second)
	for name, snap := range map[string]*Snapshot{"s1": s1, "s2": s2, "s3": s3} {
		if !srv.Current(name) || snap.Get("a") != "a2" || snap.Get("b") != "b1" {
			t.Fatalf("%s not resynced: a=%v b=%v", name, snap.Get("a"), snap.Get("b"))
		}
	}
	st := srv.Stats()
	// s1 and s2 resynced (they had acked state from the old process);
	// s3's full push is its delayed bootstrap, not a resync.
	if st.Crashes != 1 || st.Resyncs != 2 || st.FullPushes != 3 {
		t.Fatalf("stats = %+v, want 1 crash, 2 resyncs, 3 full pushes", st)
	}
	if st.MaxLag == 0 {
		t.Fatal("lag built up during the outage was not sampled")
	}
}

// retryDelay doubles from ResyncDelay up to ResyncMax, and jitter is a
// deterministic function of (subscriber, attempt) bounded by
// ResyncJitter*delay.
func TestRetryDelayBackoffAndJitter(t *testing.T) {
	srv := NewServer(Config{
		Sched: simnet.NewScheduler(), Transport: newFakeTransport(nil, 0),
		ResyncDelay: 100 * time.Millisecond, ResyncMax: 800 * time.Millisecond,
	})
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 800 * time.Millisecond,
	}
	for i, w := range want {
		if got := srv.retryDelay(&subscriber{name: "s1", attempts: i + 1}); got != w {
			t.Fatalf("attempt %d delay = %v, want %v", i+1, got, w)
		}
	}

	srv.cfg.ResyncJitter = 0.5
	seen := make(map[time.Duration]bool)
	for _, name := range []string{"s1", "s2", "s3"} {
		sub := &subscriber{name: name, attempts: 2}
		d1 := srv.retryDelay(sub)
		d2 := srv.retryDelay(sub)
		if d1 != d2 {
			t.Fatalf("%s jittered delay not deterministic: %v then %v", name, d1, d2)
		}
		if d1 < 200*time.Millisecond || d1 >= 300*time.Millisecond {
			t.Fatalf("%s attempt-2 delay %v outside [200ms, 300ms)", name, d1)
		}
		seen[d1] = true
	}
	if len(seen) < 2 {
		t.Fatalf("per-subscriber jitter did not spread the fleet: %v", seen)
	}
}

// Under MaxInflightPushes, admission is oldest-lag-first with the
// subscription index breaking ties — not queue order.
func TestAdmitPrefersOldestLag(t *testing.T) {
	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	var order []string
	srv := NewServer(Config{
		Sched: sched, Transport: orderedTransport{tr, &order},
		Debounce: 50 * time.Millisecond, FullState: true, MaxInflightPushes: 1,
	})
	subscribe(tr, srv, "a")
	subscribe(tr, srv, "b")
	subscribe(tr, srv, "c")
	srv.SetResource("r", 1, 100) // arms the flush
	// Skew the acknowledged versions before the flush fires: b is three
	// versions behind, a and c one.
	srv.version = 4
	srv.subs["a"].version = 3
	srv.subs["b"].version = 1
	srv.subs["c"].version = 3
	sched.RunFor(time.Second)

	if len(order) != 3 || order[0] != "b" || order[1] != "a" || order[2] != "c" {
		t.Fatalf("admission order = %v, want [b a c] (oldest lag, then index)", order)
	}
	if st := srv.Stats(); st.PeakInflight != 1 {
		t.Fatalf("peak inflight = %d, want 1 under the cap", st.PeakInflight)
	}
}

// MaxConcurrentResyncs bounds concurrent full resyncs, and the lease
// reclaims the slot from a subscriber whose resync wedges so waiters
// are not starved.
func TestResyncAdmissionCapAndLease(t *testing.T) {
	sched := simnet.NewScheduler()
	tr := newFakeTransport(sched, 10*time.Millisecond)
	srv := NewServer(Config{
		Sched: sched, Transport: tr, Debounce: 50 * time.Millisecond,
		ResyncDelay:          100 * time.Millisecond,
		MaxConcurrentResyncs: 1,
	})
	srv.SetResource("a", "a1", 100)
	subscribe(tr, srv, "s1")
	s2 := subscribe(tr, srv, "s2")

	tr.down["s1"] = true
	tr.down["s2"] = true
	srv.SetResource("a", "a2", 100)
	sched.RunFor(300 * time.Millisecond) // deltas time out; s1 grabs the one slot
	tr.down["s2"] = false

	// s2 is healthy but waits: s1 holds the only resync slot through its
	// endless retries.
	sched.RunFor(9800 * time.Millisecond) // t=10.1s, the 10s lease expires at ~10.16s
	if srv.Current("s2") {
		t.Fatal("s2 resynced while s1 held the only admission slot")
	}
	// Lease expiry reclaims s1's slot; s2 is admitted and completes.
	sched.RunFor(400 * time.Millisecond)
	if !srv.Current("s2") || s2.Get("a") != "a2" {
		t.Fatalf("s2 not resynced after lease reclaim: a=%v", s2.Get("a"))
	}
	if srv.Current("s1") {
		t.Fatal("s1 synced while still partitioned")
	}

	tr.down["s1"] = false
	sched.RunFor(2 * time.Second)
	if srv.UnsyncedCount() != 0 {
		t.Fatalf("unsynced = %d after s1 healed, want 0", srv.UnsyncedCount())
	}
	st := srv.Stats()
	if st.PeakResyncs != 1 {
		t.Fatalf("peak concurrent resyncs = %d, want 1 (the cap)", st.PeakResyncs)
	}
	if st.Resyncs < 2 || st.ResyncBytes == 0 {
		t.Fatalf("stats = %+v, want >=2 resyncs with bytes", st)
	}
}

// Re-subscribing an existing name replaces the registration (the
// restart path) instead of panicking: the old in-flight callback is
// ignored and pushes flow to the new registration.
func TestResubscribeReplacesRegistration(t *testing.T) {
	sched, tr, srv := newTestServer(t, false)
	srv.SetResource("a", "a1", 100)
	subscribe(tr, srv, "s1")

	srv.SetResource("a", "a2", 100)
	sched.RunFor(55 * time.Millisecond) // delta in flight to the old registration
	snap2 := subscribe(tr, srv, "s1")   // the restarted proxy rejoins
	if snap2.Get("a") != "a2" || len(srv.subOrder) != 1 {
		t.Fatalf("re-subscribe bootstrap: a=%v, %d registrations", snap2.Get("a"), len(srv.subOrder))
	}
	sched.RunFor(time.Second)
	if st := srv.Stats(); st.Acks != 0 {
		t.Fatalf("the dead registration's ack was counted: %+v", st)
	}

	srv.SetResource("b", "b1", 100)
	sched.RunFor(time.Second)
	if snap2.Get("b") != "b1" || !srv.Current("s1") {
		t.Fatalf("new registration not receiving pushes: b=%v", snap2.Get("b"))
	}
	if st := srv.Stats(); st.Acks != 1 {
		t.Fatalf("stats = %+v, want exactly the new registration's ack", st)
	}

	srv.Unsubscribe("s1")
	srv.Unsubscribe("s1") // unknown name: no-op
	before := len(tr.pushes)
	srv.SetResource("c", "c1", 100)
	sched.RunFor(time.Second)
	if len(tr.pushes) != before {
		t.Fatalf("push sent to an unsubscribed name")
	}
}
