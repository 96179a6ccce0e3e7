package meshlayer

import (
	"fmt"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/mesh"
)

// ---------- E17: zone-aware failover & graceful degradation ----------

// ZoneFailZones is the failure-domain count of the E17 topology: the
// Fig. 3 application replicated once per zone, joined at the spine.
const ZoneFailZones = 3

// ZoneFailRow is one defense configuration measured under the
// correlated-failure suite.
type ZoneFailRow struct {
	Config       string
	LSP50, LSP99 time.Duration
	LIP99        time.Duration
	// Avail is served/total over the whole measured window; OutageAvail
	// the same over the zone-a outage window only. Degraded-but-served
	// responses count as served (that is the point of degradation).
	Avail, OutageAvail float64
	// DegradedFrac is the fraction of served external responses that
	// carried the x-mesh-degraded provenance stamp.
	DegradedFrac float64
	Retries      uint64
	CrossZone    uint64
	Fallbacks    uint64
	Faults       bool
}

// applyZoneDefenses configures one rung of the E17 ladder:
// 0 = zone-blind, no defenses (single attempts, breaker off);
// 1 = zone-aware LB (strict locality), still no defenses;
// 2 = locality failover + the full E15 self-healing stack (retries,
// breakers, health checks, outlier detection, budgets + backoff);
// 3 = rung 2 + graceful degradation on the reviews -> ratings edge.
func applyZoneDefenses(cp *mesh.ControlPlane, rung int) {
	switch {
	case rung <= 0:
		applyChaosDefenses(cp, 0)
	case rung == 1:
		applyChaosDefenses(cp, 0)
		setLocality(cp, mesh.LocalityPolicy{Mode: mesh.LocalityStrict})
	default:
		applyChaosDefenses(cp, 3)
		setLocality(cp, mesh.LocalityPolicy{Mode: mesh.LocalityFailover})
		if rung >= 3 {
			degradeRatings(cp)
		}
	}
}

// setLocality applies one locality policy to every e-library service.
func setLocality(cp *mesh.ControlPlane, pol mesh.LocalityPolicy) {
	for _, svc := range eLibraryServices {
		cp.SetLocalityPolicy(svc, pol)
	}
}

// degradeRatings turns on graceful degradation on the reviews ->
// ratings edge: reviews serves its page without the ratings column
// when ratings is unreachable — a small degraded body instead of a
// failed call tree. The mesh's 400 ms fallback deadline sits above the
// ~330 ms worst-case legitimate LI queueing (see applyChaosDefenses)
// and below the callers' 1 s per-try timeouts.
func degradeRatings(cp *mesh.ControlPlane) {
	cp.SetFallbackPolicy("ratings", mesh.FallbackPolicy{Enabled: true})
}

// zoneFailSuite is the scripted correlated-failure sequence E17 replays
// against every rung: the gateway's own zone goes dark for half the
// window (the 10 s outage at the default 20 s measure), a remote zone
// turns correlated-slow, another zone partitions at the spine, and
// finally every ratings replica crashes at once — the dependency-wide
// failure only graceful degradation survives. Returns the scenario and
// the outage window [start, end) for availability scoring.
func zoneFailSuite(warmup, measure time.Duration) (chaos.Scenario, time.Duration, time.Duration) {
	w, m := warmup, measure
	outageAt, outageFor := w+m/10, m/2
	var ratingsCrash []chaos.Event
	for i := 0; i < ZoneFailZones; i++ {
		ratingsCrash = append(ratingsCrash, chaos.Event{
			At: w + 88*m/100, Duration: 8 * m / 100,
			Fault: chaos.PodCrash{Pod: "ratings-" + string(rune('a'+i))},
		})
	}
	return chaos.Scenario{
		Name: "e17-suite",
		Events: append([]chaos.Event{
			{At: outageAt, Duration: outageFor, Fault: chaos.ZoneOutage{
				Zone: "zone-a", Except: []string{"gateway"},
			}},
			{At: w + 65*m/100, Duration: m / 10, Fault: chaos.SlowZone{Zone: "zone-b", Factor: 10}},
			{At: w + 78*m/100, Duration: 8 * m / 100, Fault: chaos.ZonePartition{Zone: "zone-c"}},
		}, ratingsCrash...),
	}, outageAt, outageAt + outageFor
}

// RunZoneFail measures the three-zone e-library under the correlated
// failure suite across the defense ladder, plus a fault-free baseline.
func RunZoneFail(seed int64, warmup, measure time.Duration) []ZoneFailRow {
	warmup, measure = orDefault(warmup, 2*time.Second), orDefault(measure, 20*time.Second)
	configs := []struct {
		name   string
		rung   int
		faults bool
	}{
		{"fault-free baseline", 3, false},
		{"no defenses (zone-blind)", 0, true},
		{"zone-aware LB (strict locality)", 1, true},
		{"+ locality failover + self-healing", 2, true},
		{"+ graceful degradation", 3, true},
	}
	return sweepRows(len(configs), func(i int) ZoneFailRow {
		c := configs[i]
		return runZoneFailOnce(c.name, c.rung, c.faults, seed, warmup, measure)
	})
}

func runZoneFailOnce(name string, rung int, withFaults bool, seed int64, warmup, measure time.Duration) ZoneFailRow {
	appCfg := app.DefaultELibraryConfig()
	appCfg.Zones = ZoneFailZones
	f := newFaultRun(appCfg, seed, warmup, measure)
	applyZoneDefenses(f.cp(), rung)
	suite, outageFrom, outageTo := zoneFailSuite(warmup, measure)
	if withFaults {
		f.schedule(suite)
	}
	r := f.run()
	return ZoneFailRow{
		Config:       name,
		LSP50:        r.LS.P50,
		LSP99:        r.LS.P99,
		LIP99:        r.LI.P99,
		Avail:        f.avail(warmup, warmup+measure),
		OutageAvail:  f.avail(outageFrom, outageTo),
		DegradedFrac: f.degradedFrac(r),
		Retries:      f.counter(mesh.MetricRetriesTotal),
		CrossZone:    f.counter(mesh.MetricLBCrossZoneTotal),
		Fallbacks:    f.counter(mesh.MetricFallbackServedTotal),
		Faults:       withFaults,
	}
}

// FormatZoneFail renders the E17 table.
func FormatZoneFail(rows []ZoneFailRow) string {
	t := newTable("configuration", "LS p50", "LS p99", "LI p99",
		"avail", "outage avail", "degraded", "retries", "x-zone", "fallbacks")
	for _, r := range rows {
		outage := "-"
		if r.Faults {
			outage = fmt.Sprintf("%.2f%%", 100*r.OutageAvail)
		}
		t.row(r.Config, ms(r.LSP50), ms(r.LSP99), ms(r.LIP99),
			fmt.Sprintf("%.2f%%", 100*r.Avail), outage,
			fmt.Sprintf("%.2f%%", 100*r.DegradedFrac),
			fmt.Sprint(r.Retries), fmt.Sprint(r.CrossZone), fmt.Sprint(r.Fallbacks))
	}
	return "E17 — correlated zone failures (outage, slow-zone, partition, dependency loss) vs zone-aware failover & degradation (3 zones, 30 RPS mixed)\n" + t.String()
}
