// Package ctrlplane models xDS-style configuration distribution as
// simulated traffic instead of shared-memory magic. A Server holds
// versioned per-service resources (endpoints, routes, policies) and
// pushes them to subscribed sidecars through a pluggable Transport:
// changes are debounced into batches, encoded as incremental deltas
// against each subscriber's last acknowledged version (or as full
// state-of-the-world updates), and retried with a full resync after a
// NACK or a lost connection — the ADS/delta-xDS state machine in
// miniature. Because updates travel over the simulated network, every
// subscriber routes on its own possibly-stale snapshot, and the
// staleness window (change staged -> change acknowledged) is a
// measurable property, exposed via ctrlplane_* metrics.
//
// The package depends only on the scheduler and the metrics registry;
// the mesh supplies resource contents and the HTTP transport.
package ctrlplane

import (
	"errors"
	"sort"
	"time"

	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
)

// ErrPushTimeout is reported by transports when a push saw no reply
// within the push timeout (the connection is presumed lost).
var ErrPushTimeout = errors.New("ctrlplane: push timed out")

// Resource is one named versioned configuration blob — in the mesh,
// everything a sidecar needs to route calls to one service.
type Resource struct {
	Name string
	// Version is the server version at which the resource last changed.
	Version uint64
	// Bytes estimates the encoded size on the wire.
	Bytes int
	// ChangedAt is the virtual time of the last change (staleness base).
	ChangedAt time.Duration
	// Data is the opaque payload the subscriber snapshots.
	Data any
}

// Update is one push: either the full state of the world or the delta
// between the subscriber's acknowledged version and Version.
type Update struct {
	// Full marks a state-of-the-world update; deltas carry BaseVersion,
	// the subscriber version they apply on top of.
	Full        bool
	BaseVersion uint64
	// Version is the server version the update brings the subscriber to.
	Version uint64
	// Resources is sorted by name.
	Resources []Resource
	// WireBytes is the simulated encoded size.
	WireBytes int
	// set is the server's resource set at Version, which a subscriber
	// that applies the update holds from then on.
	set resourceSet
}

// resourceSet maps resource names to payloads at one server version.
// The server builds it once per version, and every Update built at that
// version and every Snapshot that applies one share it: it is read-only
// once built (meshvet's ctlwrite lets only Server methods write one).
type resourceSet map[string]any

// Transport delivers updates to subscribers. Push must eventually call
// done exactly once: ack=true for an acknowledged apply, ack=false with
// nil err for a NACK (delta did not apply), non-nil err for a lost or
// timed-out connection. The mesh's transport sends real simulated HTTP
// to each sidecar; tests script it directly.
type Transport interface {
	Push(subscriber string, u *Update, done func(ack bool, err error))
}

// Config assembles a Server.
type Config struct {
	Sched     *simnet.Scheduler
	Transport Transport
	// Metrics receives ctrlplane_* series (optional).
	Metrics *metrics.Registry
	// Debounce batches changes staged within the window into one push
	// (default 100ms).
	Debounce time.Duration
	// FullState forces state-of-the-world updates even for synced
	// subscribers (the xDS non-delta protocol variant).
	FullState bool
	// ResyncDelay is the backoff before re-pushing after a NACK or a
	// lost connection (default 500ms).
	ResyncDelay time.Duration
	// ResyncMax, when positive, turns the fixed ResyncDelay into an
	// exponential backoff: consecutive failed retries double the delay
	// from ResyncDelay up to ResyncMax. Zero keeps the fixed delay.
	ResyncMax time.Duration
	// ResyncJitter, when positive, adds up to ResyncJitter*delay of
	// deterministic per-subscriber jitter (FNV-1a over name+attempt) to
	// each retry so desynced subscribers do not stampede back at the
	// same virtual instant. Zero means no jitter.
	ResyncJitter float64
	// MaxInflightPushes caps updates concurrently handed to the
	// transport; excess subscribers queue and are admitted
	// oldest-lag-first as pushes settle. Zero means unlimited (every
	// flush fans out in one pass).
	MaxInflightPushes int
	// MaxConcurrentResyncs caps subscribers concurrently performing a
	// full resync: the rest wait in FIFO order for an admission slot.
	// Zero means unlimited.
	MaxConcurrentResyncs int
	// OnSynced, when set, fires each time a subscriber catches up to the
	// current server version through the push path (ack or empty-delta
	// fast-forward). The mesh uses it to gate pod readiness on config
	// sync. The initial Subscribe bootstrap does not fire it.
	OnSynced func(subscriber string)
}

// Stats aggregates one server's distribution activity.
type Stats struct {
	// DeltaPushes and FullPushes count updates handed to the transport.
	DeltaPushes, FullPushes uint64
	// WireBytes sums the simulated encoded size of every push.
	WireBytes uint64
	// Acks, Nacks, and Timeouts count push outcomes.
	Acks, Nacks, Timeouts uint64
	// Resyncs counts full updates sent to recover a desynced subscriber
	// (after its initial sync); ResyncBytes sums their wire size.
	Resyncs     uint64
	ResyncBytes uint64
	// MaxLag is the widest server-to-subscriber version gap observed at
	// any flush, desync, or ack.
	MaxLag uint64
	// Crashes counts Crash calls (server process deaths).
	Crashes uint64
	// PeakInflight and PeakResyncs are high-water marks for pushes
	// concurrently in the transport and subscribers concurrently
	// holding a resync admission slot.
	PeakInflight, PeakResyncs int
}

// Pushes returns the total update count.
func (s Stats) Pushes() uint64 { return s.DeltaPushes + s.FullPushes }

type subscriber struct {
	name string
	// idx is the subscription sequence number (stable priority tiebreak).
	idx int
	// gen guards callbacks captured before an Unsubscribe: a done or
	// timer closure from a previous registration must not touch the
	// replacement subscriber's state.
	gen uint64
	// version is the last acknowledged server version.
	version uint64
	// synced is false until the first ack and after any NACK or lost
	// connection; the next update is then a full resync.
	synced   bool
	inflight bool
	// retryArmed marks a pending resync backoff timer; attempts counts
	// consecutive failures since the last ack (the backoff exponent).
	retryArmed bool
	retryTimer simnet.Timer
	attempts   int
	// queued marks membership in pushQ; resyncWait membership in
	// resyncQ; resyncHeld a held resync admission slot (leaseTimer
	// reclaims it if the resync wedges).
	queued     bool
	resyncWait bool
	resyncHeld bool
	leaseTimer simnet.Timer
}

// Server is the distribution side of the simulated control plane.
type Server struct {
	cfg       Config
	version   uint64
	resources map[string]*Resource
	resOrder  []string
	subs      map[string]*subscriber
	// subOrder fixes push order to subscription order (determinism).
	subOrder   []string
	nextIdx    int
	hold       time.Duration
	flushArmed bool
	flushTimer simnet.Timer
	// epoch increments on every Crash; down marks a crashed process.
	// Push done-callbacks capture the epoch they were sent under and
	// are ignored if the server died in between.
	epoch uint64
	down  bool
	// pushQ holds subscribers awaiting a transport slot; resyncQ holds
	// unsynced subscribers awaiting a resync admission slot (FIFO).
	pushQ     simnet.Queue[*subscriber]
	resyncQ   simnet.Queue[*subscriber]
	inflightN int
	resyncN   int
	// cache holds what the current version shares across subscribers.
	cache versionCache
	stats Stats
}

// versionCache is what the server builds at most once per version and
// hands to every subscriber that needs it: the resource set, the
// state-of-the-world update, and one delta per subscriber base version
// (nil when that base has nothing to catch up on). A resync wave at 10k
// subscribers thus references one copy of the world instead of 10k.
// Updates are immutable once built — receivers only read them.
type versionCache struct {
	version uint64
	set     resourceSet
	full    *Update
	deltas  map[uint64]*Update
}

// current returns the cache for the server's version, emptied first if
// the version moved since it was filled.
func (s *Server) current() *versionCache {
	c := &s.cache
	if c.version != s.version {
		clear(c.deltas)
		*c = versionCache{version: s.version, deltas: c.deltas}
	}
	return c
}

// currentSet returns the current version's resource set, building it on
// first use. It is a fresh map: sets already handed out stay unchanged.
func (s *Server) currentSet() resourceSet {
	c := s.current()
	if c.set == nil {
		c.set = make(resourceSet, len(s.resOrder))
		for _, name := range s.resOrder {
			c.set[name] = s.resources[name].Data
		}
	}
	return c.set
}

// NewServer validates cfg and returns an empty server.
func NewServer(cfg Config) *Server {
	if cfg.Sched == nil || cfg.Transport == nil {
		panic("ctrlplane: Sched and Transport required")
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 100 * time.Millisecond
	}
	if cfg.ResyncDelay <= 0 {
		cfg.ResyncDelay = 500 * time.Millisecond
	}
	return &Server{
		cfg:       cfg,
		resources: make(map[string]*Resource),
		subs:      make(map[string]*subscriber),
		cache:     versionCache{deltas: make(map[uint64]*Update)},
	}
}

// Version returns the current server version.
func (s *Server) Version() uint64 { return s.version }

// Stats snapshots distribution counters.
func (s *Server) Stats() Stats { return s.stats }

// Subscribe registers a sidecar and returns its bootstrap update: the
// current full state, which the caller applies synchronously (a proxy
// blocks on its initial xDS fetch before serving). Later changes
// arrive as debounced pushes. Re-subscribing an existing name replaces
// the old registration — a chaos-restarted pod rejoining — dropping
// its pending retries, queue entries, and in-flight callbacks. While
// the server is down, Subscribe registers the name but returns nil (no
// bootstrap is available); the caller keeps routing on whatever
// snapshot it has and is full-resynced after Recover.
func (s *Server) Subscribe(name string) *Update {
	if old := s.subs[name]; old != nil {
		s.Unsubscribe(name)
	}
	sub := &subscriber{name: name, idx: s.nextIdx}
	s.nextIdx++
	s.subs[name] = sub
	s.subOrder = append(s.subOrder, name)
	if s.down {
		s.sampleLag(sub)
		return nil
	}
	sub.version = s.version
	sub.synced = true
	s.setLagGauge(sub)
	return s.fullUpdate()
}

// Unsubscribe removes a subscriber: pending retry and lease timers are
// cancelled, queued pushes dropped, held slots released, and any
// in-flight done callback ignored. Unknown names are a no-op.
func (s *Server) Unsubscribe(name string) {
	sub := s.subs[name]
	if sub == nil {
		return
	}
	sub.gen++ // in-flight done and timer closures check this and bail
	sub.retryTimer.Cancel()
	sub.leaseTimer.Cancel()
	sub.retryArmed = false
	sub.queued = false // lazily skipped when popped from pushQ
	sub.resyncWait = false
	if sub.inflight {
		sub.inflight = false
		s.inflightN--
	}
	if sub.resyncHeld {
		sub.resyncHeld = false
		s.resyncN--
	}
	delete(s.subs, name)
	for i, n := range s.subOrder {
		if n == name {
			s.subOrder = append(s.subOrder[:i], s.subOrder[i+1:]...)
			break
		}
	}
	if !s.down {
		s.admitResyncs()
	}
}

// SubscriberVersion returns a subscriber's last acknowledged version.
func (s *Server) SubscriberVersion(name string) uint64 {
	if sub := s.subs[name]; sub != nil {
		return sub.version
	}
	return 0
}

// Current reports whether the named subscriber exists, is synced, and
// has acknowledged the current server version.
func (s *Server) Current(name string) bool {
	sub := s.subs[name]
	return sub != nil && sub.synced && sub.version == s.version
}

// SetResource stages a create-or-replace at a new server version and
// arms the debounced flush.
func (s *Server) SetResource(name string, data any, bytes int) {
	s.version++
	res := s.resources[name]
	if res == nil {
		res = &Resource{Name: name}
		s.resources[name] = res
		s.resOrder = append(s.resOrder, name)
		sort.Strings(s.resOrder)
	}
	res.Version = s.version
	res.Bytes = bytes
	res.ChangedAt = s.cfg.Sched.Now()
	res.Data = data
	s.stage()
}

// SetHold adds d to every flush delay — chaos push suppression: staged
// changes keep accumulating but reach no subscriber until the hold
// lifts. Clearing the hold re-arms any suppressed flush immediately.
func (s *Server) SetHold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d == s.hold {
		return
	}
	s.hold = d
	if s.flushArmed {
		s.flushTimer.Cancel()
		s.flushArmed = false
		s.stage()
	}
}

// Flush pushes pending state now, bypassing the debounce window.
func (s *Server) Flush() { s.flush() }

// Down reports whether the server is crashed (between Crash and
// Recover); Epoch counts completed recoveries.
func (s *Server) Down() bool    { return s.down }
func (s *Server) Epoch() uint64 { return s.epoch }

// UnsyncedCount returns how many subscribers have not completed their
// (re)sync — the convergence probe experiments poll after a crash.
func (s *Server) UnsyncedCount() int {
	n := 0
	for _, name := range s.subOrder {
		if !s.subs[name].synced {
			n++
		}
	}
	return n
}

// Crash simulates control-plane process death. The resource store and
// subscriber registrations survive (they model the config source of
// truth and the set of connected proxies, both of which outlive one
// server process), but all volatile push state is lost: pending
// flushes, retry backoffs, admission queues, and in-flight pushes —
// whose done callbacks, keyed to the old epoch, are ignored when the
// transport eventually settles them. Subscribers keep routing on their
// last acknowledged snapshots (static stability).
func (s *Server) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.epoch++ // pushes sent under the old epoch settle into the void
	s.stats.Crashes++
	s.flushTimer.Cancel()
	s.flushArmed = false
	for _, name := range s.subOrder {
		sub := s.subs[name]
		sub.retryTimer.Cancel()
		sub.leaseTimer.Cancel()
		sub.retryArmed = false
		sub.inflight = false
		sub.queued = false
		sub.resyncWait = false
		sub.resyncHeld = false
		sub.attempts = 0
	}
	s.pushQ.Clear()
	s.resyncQ.Clear()
	s.inflightN = 0
	s.resyncN = 0
}

// Recover restarts a crashed server into a new epoch. Every subscriber
// is considered unsynced — its last ack belonged to the dead process —
// and must full-resync through the admission window; a flush is staged
// to start the wave after the debounce.
func (s *Server) Recover() {
	if !s.down {
		return
	}
	s.down = false
	for _, name := range s.subOrder {
		sub := s.subs[name]
		sub.synced = false
		s.sampleLag(sub)
	}
	s.stage()
}

// MaxLag returns the current widest version gap across subscribers.
func (s *Server) MaxLag() uint64 {
	var max uint64
	for _, name := range s.subOrder {
		if lag := s.version - s.subs[name].version; lag > max {
			max = lag
		}
	}
	return max
}

func (s *Server) stage() {
	if s.flushArmed || s.down {
		return
	}
	s.flushArmed = true
	s.flushTimer.Cancel() // fired or cancelled when !flushArmed; cancel before re-arm
	s.flushTimer = s.cfg.Sched.After(s.cfg.Debounce+s.hold, s.flush)
}

func (s *Server) flush() {
	s.flushArmed = false
	if s.down {
		return
	}
	for _, name := range s.subOrder {
		sub := s.subs[name]
		s.sampleLag(sub)
		s.schedulePush(sub)
	}
	s.admit()
}

// schedulePush queues sub for a push if it is behind and not already
// pending somewhere (in flight, backing off, queued, or waiting for a
// resync slot). Unsynced subscribers acquire a resync admission slot
// first when MaxConcurrentResyncs caps them. Callers follow up with
// admit().
func (s *Server) schedulePush(sub *subscriber) {
	if s.down || sub.inflight || sub.retryArmed || sub.queued || sub.resyncWait {
		return
	}
	if sub.synced && sub.version == s.version {
		return
	}
	if !sub.synced && !sub.resyncHeld && s.cfg.MaxConcurrentResyncs > 0 {
		if s.resyncN >= s.cfg.MaxConcurrentResyncs {
			sub.resyncWait = true
			s.resyncQ.Push(sub)
			return
		}
		s.grantResync(sub)
	}
	sub.queued = true
	s.pushQ.Push(sub)
}

// admit drains pushQ into the transport up to MaxInflightPushes.
// Uncapped, admission order is queue order — flush enqueues in
// subscription order, preserving the classic fan-out. Capped, the
// oldest lag goes first (lowest subscription index breaks ties).
func (s *Server) admit() {
	for s.pushQ.Len() > 0 && (s.cfg.MaxInflightPushes == 0 || s.inflightN < s.cfg.MaxInflightPushes) {
		var sub *subscriber
		if s.cfg.MaxInflightPushes == 0 {
			sub = s.pushQ.Pop()
		} else {
			waiting := s.pushQ.Waiting()
			best := -1
			var bestLag uint64
			for i, cand := range waiting {
				if !cand.queued {
					continue // dropped while queued (unsubscribe, lease revoke)
				}
				lag := s.version - cand.version
				if best == -1 || lag > bestLag ||
					(lag == bestLag && cand.idx < waiting[best].idx) {
					best, bestLag = i, lag
				}
			}
			if best == -1 {
				s.pushQ.Clear()
				return
			}
			sub = s.pushQ.Remove(best)
		}
		if !sub.queued {
			continue
		}
		sub.queued = false
		s.pushTo(sub)
	}
}

// resyncLease bounds how long one subscriber may hold a resync
// admission slot; a stuck resync is sent to the back of the queue when
// the lease expires. It is armed only when MaxConcurrentResyncs > 0.
const resyncLease = 10 * time.Second

// grantResync hands sub a resync admission slot and arms the lease
// that reclaims it if the resync wedges (e.g. a subscriber that stays
// partitioned through every retry).
func (s *Server) grantResync(sub *subscriber) {
	sub.resyncHeld = true
	s.resyncN++
	if s.resyncN > s.stats.PeakResyncs {
		s.stats.PeakResyncs = s.resyncN
	}
	gen := sub.gen
	sub.leaseTimer.Cancel() // fired or cancelled when !resyncHeld; cancel before re-arm
	sub.leaseTimer = s.cfg.Sched.After(resyncLease, func() {
		if sub.gen != gen || !sub.resyncHeld || sub.synced {
			return
		}
		// Stuck resync: free the slot and send the subscriber to the
		// back of the admission queue. An in-flight push is left to
		// settle on its own; its failure path re-queues the subscriber.
		sub.resyncHeld = false
		s.resyncN--
		if sub.queued {
			sub.queued = false // lazily skipped in admit
		}
		if !sub.inflight && !sub.retryArmed {
			sub.resyncWait = true
			s.resyncQ.Push(sub)
		}
		s.admitResyncs()
	})
}

// releaseResync returns sub's admission slot (if held) and admits the
// next waiter.
func (s *Server) releaseResync(sub *subscriber) {
	if !sub.resyncHeld {
		return
	}
	sub.resyncHeld = false
	sub.leaseTimer.Cancel()
	s.resyncN--
	s.admitResyncs()
}

// admitResyncs grants freed resync slots to the FIFO queue, then lets
// the push queue admit any newly eligible work.
func (s *Server) admitResyncs() {
	for s.resyncQ.Len() > 0 && (s.cfg.MaxConcurrentResyncs == 0 || s.resyncN < s.cfg.MaxConcurrentResyncs) {
		sub := s.resyncQ.Pop()
		if !sub.resyncWait {
			continue
		}
		sub.resyncWait = false
		s.schedulePush(sub)
	}
	s.admit()
}

func (s *Server) pushTo(sub *subscriber) {
	if s.down || sub.inflight || sub.retryArmed {
		return // the ack/retry path re-pushes if still behind
	}
	if sub.synced && sub.version == s.version {
		return
	}
	u := s.buildUpdate(sub)
	if u == nil { // nothing changed from this subscriber's view
		sub.version = s.version
		s.sampleLag(sub)
		if s.cfg.OnSynced != nil {
			s.cfg.OnSynced(sub.name)
		}
		return
	}
	typ := "delta"
	if u.Full {
		typ = "full"
		s.stats.FullPushes++
		if sub.version > 0 && !s.cfg.FullState {
			s.stats.Resyncs++
			s.stats.ResyncBytes += uint64(u.WireBytes)
		}
	} else {
		s.stats.DeltaPushes++
	}
	s.stats.WireBytes += uint64(u.WireBytes)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(MetricPushBytesTotal, nil).Add(uint64(u.WireBytes))
	}
	sub.inflight = true
	s.inflightN++
	if s.inflightN > s.stats.PeakInflight {
		s.stats.PeakInflight = s.inflightN
	}
	epoch, gen := s.epoch, sub.gen
	s.cfg.Transport.Push(sub.name, u, func(ack bool, err error) {
		if s.epoch != epoch || sub.gen != gen {
			return // the server crashed or the subscriber re-registered since
		}
		sub.inflight = false
		s.inflightN--
		switch {
		case err != nil:
			s.stats.Timeouts++
			s.pushResult(typ, "timeout")
			s.desync(sub)
		case !ack:
			s.stats.Nacks++
			s.pushResult(typ, "nack")
			s.desync(sub)
		default:
			s.stats.Acks++
			s.pushResult(typ, "ack")
			s.observeStaleness(u, sub.version)
			sub.version = u.Version
			sub.synced = true
			sub.attempts = 0
			s.releaseResync(sub)
			s.sampleLag(sub)
			if sub.version != s.version {
				// Changes accumulated while in flight: catch up now —
				// unless a hold is suppressing pushes, in which case the
				// catch-up rides the held flush like any staged change.
				if s.hold > 0 {
					s.stage()
				} else {
					s.schedulePush(sub)
				}
			} else if s.cfg.OnSynced != nil {
				s.cfg.OnSynced(sub.name)
			}
		}
		s.admit() // a transport slot settled; admit queued work
	})
}

// desync marks the subscriber for a full resync-on-reconnect and arms
// the backoff before retrying: fixed ResyncDelay by default, doubling
// up to ResyncMax with deterministic per-subscriber jitter when the
// storm-suppression knobs are set.
func (s *Server) desync(sub *subscriber) {
	sub.synced = false
	s.sampleLag(sub)
	if s.down || sub.retryArmed {
		return
	}
	sub.attempts++
	sub.retryArmed = true
	gen := sub.gen
	sub.retryTimer.Cancel() // fired or cancelled when !retryArmed; cancel before re-arm
	sub.retryTimer = s.cfg.Sched.After(s.retryDelay(sub), func() {
		if sub.gen != gen {
			return
		}
		sub.retryArmed = false
		s.schedulePush(sub)
		s.admit()
	})
}

// retryDelay computes the backoff for sub's next resync attempt.
func (s *Server) retryDelay(sub *subscriber) time.Duration {
	d := s.cfg.ResyncDelay
	if s.cfg.ResyncMax > 0 {
		for i := 1; i < sub.attempts && d < s.cfg.ResyncMax; i++ {
			d *= 2
		}
		if d > s.cfg.ResyncMax {
			d = s.cfg.ResyncMax
		}
	}
	if s.cfg.ResyncJitter > 0 {
		d += time.Duration(s.cfg.ResyncJitter * float64(d) * jitterFrac(sub.name, sub.attempts))
	}
	return d
}

// jitterFrac maps (subscriber, attempt) to a uniform value in [0,1)
// via FNV-1a — deterministic spread with no global randomness.
func jitterFrac(name string, attempt int) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(attempt)
	h *= 1099511628211
	return float64(h>>11) / float64(1<<53)
}

// sampleLag records sub's current version gap in Stats.MaxLag and the
// per-subscriber lag gauge. Called on flush, desync, and ack so lag
// built up between flushes (holds, crashes) is not under-reported.
func (s *Server) sampleLag(sub *subscriber) {
	if lag := s.version - sub.version; lag > s.stats.MaxLag {
		s.stats.MaxLag = lag
	}
	s.setLagGauge(sub)
}

// buildUpdate encodes sub's catch-up: full state for unsynced
// subscribers (or in FullState mode), otherwise the delta since its
// acknowledged version. Returns nil when the delta is empty. Every
// synced subscriber at one base gets the same delta, so it is built
// once per (base, version) and shared.
func (s *Server) buildUpdate(sub *subscriber) *Update {
	if !sub.synced || s.cfg.FullState {
		return s.fullUpdate()
	}
	base := sub.version
	c := s.current()
	if u, ok := c.deltas[base]; ok {
		return u
	}
	u := &Update{BaseVersion: base, Version: s.version, WireBytes: updateHeaderBytes}
	for _, name := range s.resOrder {
		if res := s.resources[name]; res.Version > base {
			u.Resources = append(u.Resources, *res)
			u.WireBytes += resourceHeaderBytes + res.Bytes
		}
	}
	if len(u.Resources) == 0 {
		u = nil
	} else {
		u.set = s.currentSet()
	}
	c.deltas[base] = u
	return u
}

// fullUpdate returns the state-of-the-world update for the current
// version, built once and shared.
func (s *Server) fullUpdate() *Update {
	c := s.current()
	if c.full != nil {
		return c.full
	}
	u := &Update{Full: true, Version: s.version, WireBytes: updateHeaderBytes, set: s.currentSet()}
	for _, name := range s.resOrder {
		res := s.resources[name]
		u.Resources = append(u.Resources, *res)
		u.WireBytes += resourceHeaderBytes + res.Bytes
	}
	c.full = u
	return u
}

// Simulated encoding overheads (protobuf-ish framing).
const (
	updateHeaderBytes   = 64
	resourceHeaderBytes = 24
)

// Metric families (meshvet's metricdecl: names are constants, declared
// once; MetricStalenessSeconds is also read by the experiment tables).
const (
	MetricPushTotal        = "ctrlplane_push_total"
	MetricPushBytesTotal   = "ctrlplane_push_bytes_total"
	MetricStalenessSeconds = "ctrlplane_staleness_seconds"
	MetricVersionLag       = "ctrlplane_version_lag"
)

func (s *Server) pushResult(typ, result string) {
	if s.cfg.Metrics == nil {
		return
	}
	s.cfg.Metrics.Counter(MetricPushTotal, metrics.Labels{"type": typ, "result": result}).Inc()
}

// observeStaleness records, per acknowledged resource the subscriber
// had not seen before (version > its pre-apply base), how long the
// change was in flight: stage time -> ack time. This is the window
// during which the subscriber routed on the old state. Resources a
// full-state push merely re-delivers are excluded — the subscriber was
// not stale on those.
func (s *Server) observeStaleness(u *Update, base uint64) {
	if s.cfg.Metrics == nil {
		return
	}
	now := s.cfg.Sched.Now()
	for i := range u.Resources {
		if u.Resources[i].Version <= base {
			continue
		}
		s.cfg.Metrics.ObserveDuration(MetricStalenessSeconds, nil, now-u.Resources[i].ChangedAt)
	}
}

func (s *Server) setLagGauge(sub *subscriber) {
	if s.cfg.Metrics == nil {
		return
	}
	s.cfg.Metrics.Gauge(MetricVersionLag, metrics.Labels{"subscriber": sub.name}).
		Set(float64(s.version - sub.version))
}
