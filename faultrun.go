package meshlayer

import (
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/ctrlplane"
	"meshlayer/internal/mesh"
	"meshlayer/internal/metrics"
	"meshlayer/internal/workload"
)

// eLibraryServices are the e-library's mesh services, the set every
// per-service defense policy of E15/E17/E18/E19 is applied to.
var eLibraryServices = []string{"frontend", "details", "reviews", "ratings"}

// faultRun is the run body the E15/E17/E18/E19 arms share: an e-library
// scenario under a scripted fault suite, driven at 30 RPS per class
// with one outcome recorder per class. An arm builds it, configures
// its defenses on cp(), schedules its suite, calls run, and reads its
// row off the result, the recorders and the mesh counters.
type faultRun struct {
	*Scenario
	seed            int64
	warmup, measure time.Duration
	ls, li          *workload.Timeline
	// recs is every recorder avail counts: ls, li, and any an arm takes
	// from recorder() for load beside the mixed run (E18's flash crowd).
	recs []*workload.Timeline
}

func newFaultRun(appCfg app.ELibraryConfig, seed int64, warmup, measure time.Duration) *faultRun {
	f := &faultRun{
		Scenario: NewScenario(ScenarioConfig{Seed: seed, App: appCfg}),
		seed:     seed, warmup: warmup, measure: measure,
	}
	f.ls, f.li = f.recorder(), f.recorder()
	return f
}

// recorder returns a new outcome recorder that avail will count. Its
// bucket width is sized so each bucket holds ~10+ LS samples at 30 RPS;
// much finer and empty buckets read as spurious recovery.
func (f *faultRun) recorder() *workload.Timeline {
	rec := workload.NewTimeline(0, f.measure/40)
	f.recs = append(f.recs, rec)
	return rec
}

func (f *faultRun) cp() *mesh.ControlPlane { return f.App.Mesh.ControlPlane() }

// schedule arms the fault suite against the scenario.
func (f *faultRun) schedule(suite chaos.Scenario) {
	e := f.App
	chaos.NewEngine(&chaos.Target{Sched: e.Sched, Cluster: e.Cluster, Mesh: e.Mesh}).Schedule(suite)
}

// run drives the mixed workload through the whole window.
func (f *faultRun) run() MixedResult {
	return f.RunMixed(MixedConfig{
		RPS: 30, Seed: f.seed, Warmup: f.warmup, Measure: f.measure,
		LSObserver: f.ls.Observe, LIObserver: f.li.Observe,
	})
}

// avail is served/total over [from, to), every class weighted by its
// actual completions; 1 when nothing completed in the window.
func (f *faultRun) avail(from, to time.Duration) float64 {
	return availability(from, to, f.recs...)
}

func availability(from, to time.Duration, recs ...*workload.Timeline) float64 {
	var ok, fail uint64
	for _, rec := range recs {
		o, f := rec.Counts(from, to)
		ok += o
		fail += f
	}
	if ok+fail == 0 {
		return 1
	}
	return float64(ok) / float64(ok+fail)
}

func (f *faultRun) counter(name string) uint64 { return f.App.Mesh.Metrics().CounterTotal(name) }

// degradedFrac is the fraction of r's served external responses that
// carried the x-mesh-degraded provenance stamp.
func (f *faultRun) degradedFrac(r MixedResult) float64 {
	served := r.LS.Count + r.LI.Count
	if served == 0 {
		return 0
	}
	return float64(f.counter(mesh.MetricGatewayDegradedTotal)) / float64(served)
}

// staleP99 is the p99 config age at apply time across the control
// planes publishing into reg.
func staleP99(reg *metrics.Registry) time.Duration {
	return reg.Histogram(ctrlplane.MetricStalenessSeconds, nil).QuantileDuration(0.99)
}
