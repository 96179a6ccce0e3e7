// Package ctlwritetest seeds violations for the ctlwrite analyzer:
// the struct names mirror the real mesh types so the name-based
// protection matches.
package ctlwritetest

// ControlPlane mirrors mesh.ControlPlane: versioned routing intent.
type ControlPlane struct {
	routes  map[string]string
	policy  map[string]*servicePolicy
	version uint64
}

// servicePolicy mirrors mesh.servicePolicy: one entry of the control
// plane's policy store, nil field = unset.
type servicePolicy struct {
	Retry *int
	Authz map[string]bool
}

// Snapshot mirrors ctrlplane.Snapshot: a sidecar's last-acked state,
// the resource set of that version, shared with every other snapshot
// at it.
type Snapshot struct {
	Version uint64
	set     resourceSet
}

// resourceSet mirrors ctrlplane.resourceSet: one server version's
// resources, built by the Server and read-only once handed out.
type resourceSet map[string]any

// Server mirrors ctrlplane.Server, the owner of every resourceSet.
type Server struct {
	set resourceSet
}

// buildSet is the sanctioned way to make a set: a Server method
// filling a fresh one.
func (s *Server) buildSet(res map[string]any) resourceSet {
	set := make(resourceSet, len(res))
	for k, v := range res {
		set[k] = v
	}
	delete(set, "tombstoned")
	s.set = set
	return set
}

// sidecarAgent mirrors mesh.sidecarAgent.
type sidecarAgent struct {
	snap *Snapshot
}

// Sidecar mirrors mesh.Sidecar, with the protected ctrl field.
type Sidecar struct {
	name string
	ctrl *sidecarAgent
}

// SetRoute is the push path: a ControlPlane method may mutate its own
// receiver's state freely.
func (cp *ControlPlane) SetRoute(svc, rule string) {
	cp.routes[svc] = rule
	cp.version++
}

// SetRetry is the push path for a store entry: servicePolicy belongs
// to ControlPlane, so its setters (and their closures) may write it.
func (cp *ControlPlane) SetRetry(svc string, n int) {
	edit := func(change func(*servicePolicy)) {
		change(cp.policy[svc])
		cp.version++
	}
	edit(func(pol *servicePolicy) { pol.Retry = &n })
}

// Apply is likewise sanctioned: Snapshot methods maintain the snapshot,
// installing a set by swapping the field.
func (s *Snapshot) Apply(version uint64, set resourceSet) {
	s.Version = version
	s.set = set
}

// patch shows that owning the snapshot is not owning its set: writing
// into it in place would change every snapshot at that version.
func (s *Snapshot) patch(res map[string]any, removed []string) {
	for k, v := range res {
		s.set[k] = v // want "direct write to resourceSet routing state"
	}
	for _, k := range removed {
		delete(s.set, k) // want "direct write to resourceSet routing state"
	}
	clear(s.set) // want "direct write to resourceSet routing state"
}

// rogue pokes routing state from outside the push path: every write
// below must be flagged.
func rogue(cp *ControlPlane, sc *Sidecar, snap *Snapshot) {
	cp.routes["backend"] = "v2"  // want "direct write to ControlPlane routing state"
	cp.version++                 // want "direct write to ControlPlane routing state"
	sc.ctrl = nil                // want "direct write to Sidecar.ctrl"
	sc.ctrl.snap = snap          // want "direct write to sidecarAgent routing state"
	snap.Version = 7             // want "direct write to Snapshot routing state"
	*snap = Snapshot{}           // want "direct write to Snapshot routing state"
	snap.set["backend"] = "eps"  // want "direct write to resourceSet routing state"
	snap.set = nil               // want "direct write to Snapshot routing state"
	delete(cp.routes, "backend") // want "direct write to ControlPlane routing state"
}

// roguePolicy edits a store entry behind the control plane's back: the
// instant-mode sidecars and every snapshot sharing the entry's pointers
// would change without a version bump.
func (sc *Sidecar) roguePolicy(cp *ControlPlane, pol *servicePolicy, n int) {
	cp.policy["backend"].Retry = &n // want "direct write to servicePolicy routing state"
	pol.Authz["frontend"] = true    // want "direct write to servicePolicy routing state"
	*pol.Retry = n                  // want "direct write to servicePolicy routing state"
	*pol = servicePolicy{}          // want "direct write to servicePolicy routing state"
}

// rogueMethod shows that being a method is not enough — the receiver
// must be the protected type being written.
func (sc *Sidecar) rogueMethod(cp *ControlPlane) {
	cp.version = 0 // want "direct write to ControlPlane routing state"
	sc.ctrl = nil  // want "direct write to Sidecar.ctrl"
	sc.name = "ok" // unprotected field: fine
}

// sanctioned shows the suppression path: instant-propagation
// registration installs the bootstrap snapshot by hand.
func sanctioned(sc *Sidecar, agent *sidecarAgent) {
	//meshvet:allow ctlwrite registration installs the bootstrap snapshot outside the push loop
	sc.ctrl = agent
}

// reads shows that reading protected state is always fine.
func reads(cp *ControlPlane, sc *Sidecar) (string, uint64) {
	return cp.routes["backend"], sc.ctrl.snap.Version
}

// ewSummaryTable mirrors mesh.ewSummaryTable: a regional control
// plane's learned per-region capacity summaries — the east-west
// routing state the failover ladder spills onto.
type ewSummaryTable struct {
	counts map[string]map[string]int
}

// apply is the summary push path: the table's own methods maintain it.
func (t *ewSummaryTable) apply(region string, counts map[string]int) {
	t.counts[region] = counts
}

// regionalCP holds a summary table the way the distributor does.
type regionalCP struct {
	summary *ewSummaryTable
}

// rogueSummary pokes east-west routing state from outside the summary
// push path: every write below must be flagged.
func rogueSummary(t *ewSummaryTable, cp *regionalCP) {
	t.counts["region-b"] = nil                      // want "direct write to ewSummaryTable routing state"
	t.counts["region-b"]["backend"] = 3             // want "direct write to ewSummaryTable routing state"
	cp.summary.counts = map[string]map[string]int{} // want "direct write to ewSummaryTable routing state"
	*t = ewSummaryTable{}                           // want "direct write to ewSummaryTable routing state"
	cp.summary = nil                                // swapping the holder's pointer is not a table write: fine
}

// readsSummary shows reads of summary state are fine, and method calls
// route through the push path.
func readsSummary(t *ewSummaryTable) int {
	t.apply("region-b", map[string]int{"backend": 1})
	return t.counts["region-b"]["backend"]
}
