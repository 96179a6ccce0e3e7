package meshlayer

import (
	"fmt"
	"strings"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/mesh"
)

// ---------- E19: multi-region federation under WAN-scale chaos ----------

// FederationRegions is the region count of the E19 topology: the zoned
// e-library replicated across this many regions (two zones each),
// joined by 25 ms WAN links between region spines.
const FederationRegions = 3

// FederationRow is one (ladder mode x fallback) configuration measured
// under the federation chaos suite.
type FederationRow struct {
	Config string
	// Ladder is the failover reach: "off" (the pre-federation flat mesh
	// with a global view), "region" (per-region control planes, no WAN
	// spillover), or "full" (the complete priority ladder riding the
	// east-west gateways).
	Ladder   string
	Fallback bool
	// Federated is true when per-region control planes distribute
	// region-scoped snapshots (false only for the flat-mesh arm).
	Federated bool

	LSP50, LSP99 time.Duration
	// Avail is served/total over the whole measured window; EvacAvail
	// the same over the region-a evacuation, PartAvail over the
	// region-b WAN partition. Degraded-but-served counts as served.
	Avail, EvacAvail, PartAvail float64
	// DegradedFrac is the fraction of served external responses
	// carrying the x-mesh-degraded provenance stamp.
	DegradedFrac float64
	CrossRegion  uint64
	EastWest     uint64
	Fallbacks    uint64
	// StaleP99 is the p99 config age at apply time across all regional
	// control planes (zero for the flat-mesh arm).
	StaleP99 time.Duration
	Faults   bool
}

// applyFederationDefenses configures one arm of the E19 sweep. Every
// arm gets the full E15 self-healing stack (retries with budgets,
// breakers, health checks, outlier detection) so the axis under test is
// failover reach, not generic resilience.
func applyFederationDefenses(cp *mesh.ControlPlane, ladder string, fallback bool) {
	applyChaosDefenses(cp, 3)
	switch ladder {
	case "region":
		setLocality(cp, mesh.LocalityPolicy{Mode: mesh.LocalityRegionOnly})
	case "full":
		setLocality(cp, mesh.LocalityPolicy{Mode: mesh.LocalityLadder, PanicThreshold: 0.5})
	}
	if fallback {
		degradeRatings(cp) // as in E17
	}
}

// federationSuite scripts the WAN-scale sequence E19 replays against
// every arm: region-a (the ingress region) is evacuated — its pods
// drained one at a time across a quarter of the measured window, the
// edge gateway and regional infrastructure spared — and mid-evacuation
// the WAN around region-b partitions, leaving region-c as the only
// honestly reachable capacity while control planes route on frozen
// summaries of region-b. A gray SlowWAN failure brushes region-c's
// links during the partition, and near the end every ratings replica
// crashes at once — the dependency-wide loss only graceful degradation
// survives. Returns the scenario plus the evacuation and partition
// windows [from, to) for availability scoring.
func federationSuite(seed int64, warmup, measure time.Duration, zones []string) (chaos.Scenario, [4]time.Duration) {
	w, m := warmup, measure
	evacAt, evacFor := w+m/10, m/2
	partAt, partFor := w+m/4, m/5
	events := []chaos.Event{
		{At: evacAt, Duration: evacFor, Fault: &chaos.RegionEvacuate{
			Region: "region-a", Window: m / 4,
			Except: []string{
				"gateway",
				mesh.EWGatewayService("region-a"),
				mesh.CtrlPlanePod + "-region-a",
			},
		}},
		{At: partAt, Duration: partFor, Fault: chaos.WANPartition{Region: "region-b"}},
		{At: w + 3*m/10, Duration: m / 10, Fault: chaos.SlowWAN{
			Region: "region-c", Extra: 5 * time.Millisecond, Loss: 0.01, Seed: seed*3 + 7,
		}},
	}
	for _, z := range zones {
		events = append(events, chaos.Event{
			At: w + 8*m/10, Duration: m / 10,
			Fault: chaos.PodCrash{Pod: "ratings-" + strings.TrimPrefix(z, "zone-")},
		})
	}
	return chaos.Scenario{Name: "e19-suite", Events: events},
		[4]time.Duration{evacAt, evacAt + evacFor, partAt, partAt + partFor}
}

// RunFederation measures the three-region e-library under the
// federation chaos suite, sweeping failover reach {off, region-only,
// full ladder} x graceful degradation, plus a fault-free baseline.
func RunFederation(seed int64, warmup, measure time.Duration) []FederationRow {
	warmup, measure = orDefault(warmup, 2*time.Second), orDefault(measure, 20*time.Second)
	configs := []struct {
		name     string
		ladder   string
		fallback bool
		faults   bool
	}{
		{"fault-free baseline (full ladder)", "full", true, false},
		{"flat mesh (global view, zone-blind)", "off", false, true},
		{"flat mesh + degradation", "off", true, true},
		{"region-only isolation", "region", false, true},
		{"region-only + degradation", "region", true, true},
		{"failover ladder", "full", false, true},
		{"failover ladder + degradation", "full", true, true},
	}
	return sweepRows(len(configs), func(i int) FederationRow {
		c := configs[i]
		return runFederationOnce(c.name, c.ladder, c.fallback, c.faults, seed, warmup, measure)
	})
}

func runFederationOnce(name, ladder string, fallback, withFaults bool,
	seed int64, warmup, measure time.Duration) FederationRow {
	appCfg := app.DefaultELibraryConfig()
	appCfg.Regions = FederationRegions
	f := newFaultRun(appCfg, seed, warmup, measure)
	cp := f.cp()
	applyFederationDefenses(cp, ladder, fallback)

	// The flat-mesh arm is the pre-federation deployment: one shared
	// control plane, instant global discovery, direct cross-region
	// dials. Every other arm runs per-region control planes with
	// config-sync-gated readiness, so restored capacity re-enters
	// routing only once its sidecar has resynced.
	federated := ladder != "off"
	if federated {
		cp.EnableDistribution(mesh.DistributionConfig{
			PerRegion:     true,
			Debounce:      100 * time.Millisecond,
			PushTimeout:   500 * time.Millisecond,
			ResyncDelay:   100 * time.Millisecond,
			GateReadiness: true,
		})
	}

	suite, win := federationSuite(seed, warmup, measure, f.App.Zones)
	if withFaults {
		f.schedule(suite)
	}
	r := f.run()
	row := FederationRow{
		Config: name, Ladder: ladder, Fallback: fallback, Federated: federated,
		LSP50:        r.LS.P50,
		LSP99:        r.LS.P99,
		Avail:        f.avail(warmup, warmup+measure),
		EvacAvail:    f.avail(win[0], win[1]),
		PartAvail:    f.avail(win[2], win[3]),
		DegradedFrac: f.degradedFrac(r),
		CrossRegion:  f.counter(mesh.MetricCrossRegionTotal),
		EastWest:     f.counter(mesh.MetricEWIngressTotal),
		Fallbacks:    f.counter(mesh.MetricFallbackServedTotal),
		Faults:       withFaults,
	}
	if federated {
		row.StaleP99 = staleP99(f.App.Mesh.Metrics())
	}
	return row
}

// FormatFederation renders the E19 table.
func FormatFederation(rows []FederationRow) string {
	t := newTable("configuration", "LS p50", "LS p99", "avail", "evac avail",
		"part avail", "degraded", "x-region", "eastwest", "fallbacks", "stale p99")
	for _, r := range rows {
		evac, part := "-", "-"
		if r.Faults {
			evac = fmt.Sprintf("%.2f%%", 100*r.EvacAvail)
			part = fmt.Sprintf("%.2f%%", 100*r.PartAvail)
		}
		stale := "-"
		if r.Federated {
			stale = ms(r.StaleP99)
		}
		t.row(r.Config, ms(r.LSP50), ms(r.LSP99),
			fmt.Sprintf("%.2f%%", 100*r.Avail), evac, part,
			fmt.Sprintf("%.2f%%", 100*r.DegradedFrac),
			fmt.Sprint(r.CrossRegion), fmt.Sprint(r.EastWest),
			fmt.Sprint(r.Fallbacks), stale)
	}
	return "E19 — multi-region federation: region evacuation + WAN partition vs the priority failover ladder (3 regions x 2 zones, 30 RPS mixed)\n" + t.String()
}
