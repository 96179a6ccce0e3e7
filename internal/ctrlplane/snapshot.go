package ctrlplane

// Snapshot is a subscriber's view of the distributed state — the
// possibly-stale view a sidecar routes on. Apply is the client half of
// the delta protocol: a delta whose BaseVersion does not match the
// snapshot's version cannot be applied soundly and must be NACKed,
// which makes the server fall back to a full resync.
//
// A subscriber that acks version v holds exactly the server's resource
// set at v — a full update is that set, and a delta from the acked base
// carries everything changed since — so a snapshot does not copy the
// update's resources: it installs the set the server built for v, which
// every snapshot at v shares.
type Snapshot struct {
	Version uint64
	set     resourceSet
}

// NewSnapshot returns an empty snapshot at version 0.
func NewSnapshot() *Snapshot { return &Snapshot{} }

// Apply installs an update built by a Server. It reports false (NACK)
// when a delta's base version does not match the snapshot; the snapshot
// is then unchanged.
func (s *Snapshot) Apply(u *Update) bool {
	if !u.Full && u.BaseVersion != s.Version {
		return false
	}
	s.Version, s.set = u.Version, u.set
	return true
}

// Get returns the resource payload, or nil when absent.
func (s *Snapshot) Get(name string) any { return s.set[name] }
