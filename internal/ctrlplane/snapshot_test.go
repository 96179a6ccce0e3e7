package ctrlplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// refSnapshot is the copying Apply snapshots used before they shared
// one resource set per version: a private map per subscriber, rebuilt
// by a full update and edited in place by a delta. It is the oracle
// TestSnapshotMatchesReferenceApply feeds the same updates.
type refSnapshot struct {
	version uint64
	res     map[string]any
}

func (s *refSnapshot) apply(u *Update) bool {
	if u.Full {
		s.res = make(map[string]any, len(u.Resources))
		for i := range u.Resources {
			s.res[u.Resources[i].Name] = u.Resources[i].Data
		}
		s.version = u.Version
		return true
	}
	if u.BaseVersion != s.version {
		return false
	}
	for i := range u.Resources {
		s.res[u.Resources[i].Name] = u.Resources[i].Data
	}
	s.version = u.Version
	return true
}

// view is one subscriber-side snapshot under test and its oracle.
type view struct {
	snap *Snapshot
	ref  *refSnapshot
}

func newView() view { return view{NewSnapshot(), &refSnapshot{res: make(map[string]any)}} }

func (v view) apply(t *testing.T, u *Update) bool {
	t.Helper()
	ok := v.snap.Apply(u)
	if want := v.ref.apply(u); ok != want {
		t.Fatalf("Apply(full=%v base=%d version=%d) on a snapshot at %d = %v, reference apply = %v",
			u.Full, u.BaseVersion, u.Version, v.snap.Version, ok, want)
	}
	return ok
}

// updateKey names what one Update brings: a full update the server's
// state at version, a delta the catch-up from base to version.
type updateKey struct {
	full          bool
	base, version uint64
}

// walkTransport delivers each push after a seeded random delay to
// whichever view holds the subscriber's name at delivery, unless the
// name is marked down (timeout) or forced to NACK. At hand-off it
// checks the protocol: an update brings the subscriber to the server's
// version, a delta starts at the subscriber's acked base, and one
// Update is built per updateKey and handed to every subscriber that
// needs it.
type walkTransport struct {
	t          *testing.T
	sched      *simnet.Scheduler
	rng        *rand.Rand
	srv        *Server
	views      map[string]view
	down, nack map[string]bool
	built      map[updateKey]*Update
	pushed     []*Update
	sets       *setLedger
}

func (w *walkTransport) Push(sub string, u *Update, done func(bool, error)) {
	t := w.t
	if u.Version != w.srv.Version() {
		t.Fatalf("push to %s brings it to version %d, server is at %d", sub, u.Version, w.srv.Version())
	}
	if !u.Full && u.BaseVersion != w.srv.SubscriberVersion(sub) {
		t.Fatalf("delta to %s starts at %d, its acked version is %d", sub, u.BaseVersion, w.srv.SubscriberVersion(sub))
	}
	k := updateKey{u.Full, u.BaseVersion, u.Version}
	if prev := w.built[k]; prev != nil && prev != u {
		t.Fatalf("two updates built for %+v", k)
	}
	w.built[k] = u
	w.pushed = append(w.pushed, u)
	w.sets.note(u.set)
	w.sched.After(time.Duration(1+w.rng.Intn(30))*time.Millisecond, func() {
		switch {
		case w.down[sub]:
			done(false, ErrPushTimeout)
		case w.nack[sub]:
			done(false, nil)
		default:
			done(w.views[sub].apply(t, u), nil)
		}
	})
}

// setLedger fingerprints every resource set at first sight, holding a
// reference so no set's address can be reused, and re-checks them all:
// a set is shared by every snapshot at its version, so it must never
// change after it is handed out.
type setLedger struct {
	first map[uintptr]ledgerEntry
}

type ledgerEntry struct {
	set resourceSet
	fp  string
}

func setID(s resourceSet) uintptr { return reflect.ValueOf(s).Pointer() }

func (l *setLedger) note(s resourceSet) {
	if s == nil {
		return
	}
	if _, ok := l.first[setID(s)]; !ok {
		l.first[setID(s)] = ledgerEntry{s, fmt.Sprint(s)} // fmt prints maps in key order
	}
}

func (l *setLedger) verify(t *testing.T, where string) {
	t.Helper()
	for _, e := range l.first {
		if fp := fmt.Sprint(e.set); fp != e.fp {
			t.Fatalf("%s: a shared set changed after it was handed out: %s, was %s", where, fp, e.fp)
		}
	}
}

// TestSnapshotMatchesReferenceApply runs seeded random walks over a
// server and its subscribers — sets of new and existing names,
// subscribes, unsubscribes and re-subscribes, crash and
// recovery, holds, lost connections and forced NACKs — on a plain, a
// FullState and a capped server. After every step each snapshot must
// read, for every name the walk ever used, what the copying reference
// apply fed the same updates reads; a probe view fed random earlier
// updates checks the NACK-leaves-snapshot-unchanged rule the same way.
// No set may change after it is handed out, and snapshots at one version
// share one set. At drain, after a resync wave, every subscriber holds
// exactly the server's state.
func TestSnapshotMatchesReferenceApply(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"fullstate", Config{FullState: true}},
		{"capped", Config{
			MaxInflightPushes: 1, MaxConcurrentResyncs: 1,
			ResyncMax: 2 * time.Second, ResyncJitter: 0.5,
		}},
	}
	var paths walkPaths
	for _, c := range configs {
		for seed := int64(1); seed <= 12; seed++ {
			walkSnapshots(t, fmt.Sprintf("%s/seed %d", c.name, seed), c.cfg, seed, &paths)
		}
	}
	if paths.deltas == 0 || paths.fulls == 0 || paths.nacks == 0 || paths.timeouts == 0 ||
		paths.crashes == 0 || paths.probeAcks == 0 || paths.probeNacks == 0 {
		t.Fatalf("walks missed a path: %+v", paths)
	}
}

// walkPaths counts what the walks reached: together they must reach
// every path they exist to check.
type walkPaths struct {
	deltas, fulls, nacks, timeouts, crashes uint64
	// probeAcks and probeNacks count the replays the probe view applied
	// and refused.
	probeAcks, probeNacks int
}

func walkSnapshots(t *testing.T, name string, cfg Config, seed int64, paths *walkPaths) {
	rng := rand.New(rand.NewSource(seed))
	sched := simnet.NewScheduler()
	ledger := &setLedger{first: make(map[uintptr]ledgerEntry)}
	w := &walkTransport{
		t: t, sched: sched, rng: rng,
		views: make(map[string]view),
		down:  make(map[string]bool), nack: make(map[string]bool),
		built: make(map[updateKey]*Update),
		sets:  ledger,
	}
	cfg.Sched, cfg.Transport = sched, w
	cfg.Debounce, cfg.ResyncDelay = 20*time.Millisecond, 100*time.Millisecond
	srv := NewServer(cfg)
	w.srv = srv

	resNames := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	viewNames := []string{"s0", "s1", "s2", "s3", "s4", "probe"}
	subNames := viewNames[:5]
	probe := newView()
	w.views["probe"] = probe // never subscribed: fed replays, not pushes

	subscribe := func(sub string) {
		u := srv.Subscribe(sub)
		if u == nil { // control plane down: the sidecar keeps its snapshot
			if _, ok := w.views[sub]; !ok {
				w.views[sub] = newView()
			}
			return
		}
		ledger.note(u.set)
		v := newView()
		w.views[sub] = v
		if !v.apply(t, u) {
			t.Fatalf("%s: bootstrap of %s NACKed", name, sub)
		}
	}
	check := func(where string) {
		t.Helper()
		sets := make(map[uintptr]bool)
		versions := make(map[uint64]bool)
		for _, sub := range viewNames {
			v, ok := w.views[sub]
			if !ok {
				continue
			}
			if v.snap.Version != v.ref.version {
				t.Fatalf("%s, %s: %s at version %d, reference at %d", name, where, sub, v.snap.Version, v.ref.version)
			}
			for _, res := range resNames {
				if got, want := v.snap.Get(res), v.ref.res[res]; got != want {
					t.Fatalf("%s, %s: %s reads %s = %v, reference %v", name, where, sub, res, got, want)
				}
			}
			if v.snap.set != nil {
				ledger.note(v.snap.set)
				sets[setID(v.snap.set)] = true
				versions[v.snap.Version] = true
			}
		}
		if len(sets) > len(versions) {
			t.Fatalf("%s, %s: snapshots hold %d sets across %d versions", name, where, len(sets), len(versions))
		}
		ledger.verify(t, name+", "+where)
	}

	for step := 0; step < 400; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 40:
			res := resNames[rng.Intn(len(resNames))]
			srv.SetResource(res, fmt.Sprintf("%s@%d", res, step), 10+rng.Intn(100))
			op = "set " + res
		case r < 50:
			sub := subNames[rng.Intn(len(subNames))]
			subscribe(sub)
			op = "subscribe " + sub
		case r < 55:
			sub := subNames[rng.Intn(len(subNames))]
			srv.Unsubscribe(sub)
			op = "unsubscribe " + sub
		case r < 59:
			if srv.Down() {
				srv.Recover()
				op = "recover"
			} else {
				srv.Crash()
				op = "crash"
			}
		case r < 63:
			hold := []time.Duration{0, 0, 300 * time.Millisecond, 2 * time.Second}[rng.Intn(4)]
			srv.SetHold(hold)
			op = fmt.Sprintf("hold %v", hold)
		case r < 72:
			sub := subNames[rng.Intn(len(subNames))]
			w.down[sub] = !w.down[sub]
			op = "toggle down " + sub
		case r < 80:
			sub := subNames[rng.Intn(len(subNames))]
			w.nack[sub] = !w.nack[sub]
			op = "toggle nack " + sub
		case r < 90 && len(w.pushed) > 0:
			if probe.apply(t, w.pushed[rng.Intn(len(w.pushed))]) {
				paths.probeAcks++
			} else {
				paths.probeNacks++
			}
			op = "probe"
		case r < 93:
			// Long enough for a subscriber that stays down to outlive
			// its resync lease.
			sched.RunFor(resyncLease)
			op = "long wait"
		default:
			op = "wait"
		}
		sched.RunFor(time.Duration(rng.Intn(150)) * time.Millisecond)
		check(fmt.Sprintf("step %d (%s)", step, op))
	}

	// Drain: heal every fault and let in-flight pushes settle, then run
	// a resync wave so subscribers whose snapshot a stale push rewound
	// are caught up too.
	clear(w.down)
	clear(w.nack)
	srv.SetHold(0)
	srv.Recover()
	sched.RunFor(10 * time.Second)
	srv.Crash()
	srv.Recover()
	sched.RunFor(10 * time.Second)
	check("drain")
	for _, sub := range subNames {
		if srv.subs[sub] == nil {
			continue
		}
		v := w.views[sub]
		if !srv.Current(sub) || v.snap.Version != srv.Version() {
			t.Fatalf("%s, drain: %s at version %d (current=%v), server at %d", name, sub, v.snap.Version, srv.Current(sub), srv.Version())
		}
		for _, res := range resNames {
			var want any
			if r := srv.resources[res]; r != nil {
				want = r.Data
			}
			if got := v.snap.Get(res); got != want {
				t.Fatalf("%s, drain: %s reads %s = %v, server holds %v", name, sub, res, got, want)
			}
		}
	}
	st := srv.Stats()
	paths.deltas += st.DeltaPushes
	paths.fulls += st.FullPushes
	paths.nacks += st.Nacks
	paths.timeouts += st.Timeouts
	paths.crashes += st.Crashes
}
