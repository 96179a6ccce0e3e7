package meshlayer

import (
	"fmt"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/cluster"
	"meshlayer/internal/mesh"
	"meshlayer/internal/workload"
)

// ---------- E18: control-plane propagation under churn ----------

// CtrlStormZones is the default failure-domain count of the E18
// topology (one full application replica per zone, as in E17).
const CtrlStormZones = 3

// CtrlPlaneRow is one propagation configuration measured under the
// deploy-storm + flash-crowd suite.
type CtrlPlaneRow struct {
	Config   string
	Zones    int
	Debounce time.Duration
	// Distributed is false for the instant-propagation baseline row.
	Distributed bool

	LSP99 time.Duration
	// Avail is served/total over the whole measured window; StormAvail
	// the same over the deploy-storm window only.
	Avail, StormAvail float64
	// CrowdP99 is the latency-sensitive p99 of the flash-crowd burst
	// that lands mid-storm.
	CrowdP99 time.Duration

	// Control-plane cost and staleness (zero-valued for the baseline):
	// pushes split by kind, bytes on the wire, push timeouts, forced
	// full resyncs, the p99 of config age at apply time, and the widest
	// server-to-sidecar version gap seen.
	DeltaPushes, FullPushes uint64
	WireBytes               uint64
	Timeouts, Resyncs       uint64
	StaleP99                time.Duration
	MaxLag                  uint64
}

// ctrlStormSuite scripts the deploy storm: every application pod
// restarts once — drained (readiness off) for a grace window, then
// killed, then back — staggered across services and zones so no
// service ever loses all replicas at once. Sidecars with fresh
// discovery stop routing to a pod during its drain; sidecars on stale
// snapshots keep dialing it through the kill. Returns the scenario and
// the storm window [start, end) for availability scoring.
func ctrlStormSuite(zones []string, warmup, measure time.Duration) (chaos.Scenario, time.Duration, time.Duration) {
	var pods []string
	for i := range zones {
		suffix := string(rune('a' + i))
		for _, svc := range eLibraryServices {
			pods = append(pods, svc+"-"+suffix)
		}
	}
	stormAt := warmup + measure/10
	stormLen := 3 * measure / 10
	stagger := stormLen / time.Duration(len(pods))
	downFor := measure / 20
	grace := 200 * time.Millisecond
	events := make([]chaos.Event, len(pods))
	for k, pod := range pods {
		events[k] = chaos.Event{
			At: stormAt + time.Duration(k)*stagger, Duration: downFor,
			Fault: chaos.Restart{Pod: pod, Grace: grace},
		}
	}
	stormEnd := stormAt + time.Duration(len(pods)-1)*stagger + downFor + time.Second
	return chaos.Scenario{Name: "e18-deploy-storm", Events: events}, stormAt, stormEnd
}

// RunCtrlPlane measures the zoned e-library under a rolling deploy
// storm plus a mid-storm flash crowd, across control-plane propagation
// configurations: the instant-propagation baseline, delta pushes over
// a debounce ladder, state-of-the-world pushes, and a larger fleet.
// Defenses are the E15 level-0 stack (single attempts, no retries, no
// active health checks), so endpoint liveness reaches sidecars only
// through discovery pushes — the staleness of a sidecar's snapshot is
// exactly what decides whether it keeps dialing a killed pod, and each
// such dial is a user-visible failure rather than a retried one.
func RunCtrlPlane(seed int64, warmup, measure time.Duration) []CtrlPlaneRow {
	warmup, measure = orDefault(warmup, 2*time.Second), orDefault(measure, 20*time.Second)
	configs := []struct {
		name     string
		zones    int
		dist     bool
		debounce time.Duration
		full     bool
	}{
		{"instant propagation (shared state)", CtrlStormZones, false, 0, false},
		{"delta push, 10ms debounce", CtrlStormZones, true, 10 * time.Millisecond, false},
		{"delta push, 100ms debounce", CtrlStormZones, true, 100 * time.Millisecond, false},
		{"delta push, 500ms debounce", CtrlStormZones, true, 500 * time.Millisecond, false},
		{"delta push, 2s debounce", CtrlStormZones, true, 2 * time.Second, false},
		{"full-state push, 100ms debounce", CtrlStormZones, true, 100 * time.Millisecond, true},
		{"delta push, 100ms debounce, 6 zones", 2 * CtrlStormZones, true, 100 * time.Millisecond, false},
	}
	return sweepRows(len(configs), func(i int) CtrlPlaneRow {
		c := configs[i]
		return runCtrlPlaneOnce(c.name, c.zones, c.dist, c.debounce, c.full, seed, warmup, measure)
	})
}

func runCtrlPlaneOnce(name string, zones int, dist bool, debounce time.Duration, full bool,
	seed int64, warmup, measure time.Duration) CtrlPlaneRow {
	appCfg := app.DefaultELibraryConfig()
	appCfg.Zones = zones
	// No ratings bottleneck in this topology: with one, promptly
	// removing a drained replica concentrates the 2 MB analytics
	// transfers on the surviving bottleneck links, and that capacity
	// effect confounds the propagation effect E18 isolates.
	appCfg.BottleneckRate = cluster.DefaultLink.Rate
	f := newFaultRun(appCfg, seed, warmup, measure)
	e := f.App
	applyChaosDefenses(f.cp(), 0)
	if dist {
		// Tight reconnect loop: a restarted pod's sidecar is resynced
		// within ~600ms of coming back, so the time it routes on its
		// frozen pre-restart snapshot is bounded and the debounce
		// interval — not reconnect detection — dominates staleness.
		f.cp().EnableDistribution(mesh.DistributionConfig{
			Debounce: debounce, FullState: full,
			PushTimeout: 500 * time.Millisecond, ResyncDelay: 100 * time.Millisecond,
		})
	}

	suite, stormFrom, stormTo := ctrlStormSuite(e.Zones, warmup, measure)
	f.schedule(suite)

	// The flash crowd: a 3x burst of latency-sensitive traffic arriving
	// mid-storm, when part of the fleet is mid-restart. How quickly
	// recovered capacity re-enters sidecar snapshots bounds how well it
	// is absorbed.
	crowdAt := stormFrom + (stormTo-stormFrom)/2
	crowdFor := measure / 4
	crowdRec := f.recorder()
	var crowd *workload.Generator
	e.Sched.After(crowdAt, func() {
		crowd = workload.Start(e.Sched, e.Gateway, workload.Spec{
			Name: "flash-crowd", Rate: 90, NewRequest: app.NewProductRequest,
			Seed: seed*7 + 5, Measure: crowdFor, Cooldown: time.Second,
			OnComplete: crowdRec.Observe,
		})
	})

	r := f.run()

	row := CtrlPlaneRow{
		Config: name, Zones: zones, Debounce: debounce, Distributed: dist,
		LSP99:      r.LS.P99,
		Avail:      f.avail(warmup, warmup+measure),
		StormAvail: f.avail(stormFrom, stormTo),
	}
	if crowd != nil {
		row.CrowdP99 = crowd.Results().P99()
	}
	if srv := f.cp().Distribution(); srv != nil {
		st := srv.Stats()
		row.DeltaPushes, row.FullPushes = st.DeltaPushes, st.FullPushes
		row.WireBytes = st.WireBytes
		row.Timeouts, row.Resyncs = st.Timeouts, st.Resyncs
		row.MaxLag = st.MaxLag
		row.StaleP99 = staleP99(e.Mesh.Metrics())
	}
	return row
}

// FormatCtrlPlane renders the E18 table.
func FormatCtrlPlane(rows []CtrlPlaneRow) string {
	t := newTable("configuration", "LS p99", "avail", "storm avail", "crowd p99",
		"pushes (Δ/full)", "wire KB", "timeouts", "resyncs", "stale p99", "max lag")
	for _, r := range rows {
		pushes, wire, timeouts, resyncs, stale, lag := "-", "-", "-", "-", "-", "-"
		if r.Distributed {
			pushes = fmt.Sprintf("%d/%d", r.DeltaPushes, r.FullPushes)
			wire = fmt.Sprintf("%.1f", float64(r.WireBytes)/1024)
			timeouts = fmt.Sprint(r.Timeouts)
			resyncs = fmt.Sprint(r.Resyncs)
			stale = ms(r.StaleP99)
			lag = fmt.Sprint(r.MaxLag)
		}
		t.row(r.Config, ms(r.LSP99),
			fmt.Sprintf("%.2f%%", 100*r.Avail),
			fmt.Sprintf("%.2f%%", 100*r.StormAvail),
			ms(r.CrowdP99), pushes, wire, timeouts, resyncs, stale, lag)
	}
	return "E18 — control-plane propagation under a deploy storm + flash crowd (rolling restarts, 30 RPS mixed + 90 RPS burst)\n" + t.String()
}
