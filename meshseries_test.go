package meshlayer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
)

// meshSeriesFile is the checked-in Metrics().Dump() of the scenario
// TestMeshSeriesUnchanged replays (go test -run TestMeshSeriesUnchanged
// -update . rewrites it).
var meshSeriesFile = filepath.Join("testdata", "mesh_series.txt")

// TestMeshSeriesUnchanged replays a three-zone e-library through every
// path that registers a mesh series — retries on 5xx, an exhausted
// upstream failing with an error, a ratings fallback, admission turned
// on and then off, health probes and outlier ejection, calls to a
// service the mesh does not know, and a gateway that classifies and
// then stops classifying — and compares the whole registry
// byte-for-byte with a capture. Which series exist is part of the
// output: a series created before its first observation shows as a
// zero-count line that the capture does not hold.
func TestMeshSeriesUnchanged(t *testing.T) {
	acfg := app.DefaultELibraryConfig()
	acfg.Zones = 3
	s := NewScenario(ScenarioConfig{Seed: 11, App: acfg})
	e := s.App
	cp := e.Mesh.ControlPlane()
	applyZoneDefenses(cp, 3)
	cp.SetAdmissionPolicy("frontend", mesh.AdmissionPolicy{
		Enabled: true, QueueLimit: 2, QueueTarget: 2 * time.Millisecond, QueueInterval: 10 * time.Millisecond,
		InitialConcurrency: 1, MinConcurrency: 1, MaxConcurrency: 2, Budget: 800 * time.Millisecond,
	})

	serve := func(req *httpsim.Request) { e.Gateway.Serve(req, func(*httpsim.Response, error) {}) }
	for i := 0; i < 400; i++ {
		e.Sched.At(time.Duration(i)*5*time.Millisecond, func() {
			switch {
			case i%10 == 9:
				// A service the mesh does not know is only ever an
				// outbound series: it must grow no inbound one.
				req := app.NewProductRequest()
				req.Headers.Set(mesh.HeaderHost, "catalog")
				serve(req)
			case i%4 == 3:
				serve(app.NewAnalyticsRequest())
			default:
				serve(app.NewProductRequest())
			}
		})
	}
	e.Sched.At(200*time.Millisecond, func() {
		e.Mesh.Sidecar("reviews-b").SetServerFault(mesh.ServerFault{Prob: 0.5, Seed: 5})
	})
	e.Sched.At(500*time.Millisecond, func() {
		cp.SetAdmissionPolicy("frontend", mesh.AdmissionPolicy{})
	})
	e.Sched.At(700*time.Millisecond, func() {
		for _, rt := range e.AllRatings {
			rt.Partition(true)
			rt.Host().ResetConns()
		}
	})
	e.Sched.At(900*time.Millisecond, func() {
		for _, p := range e.Cluster.Pods() {
			if p.Label("app") == "details" {
				p.Partition(true)
				p.Host().ResetConns()
			}
		}
	})
	e.Sched.At(1200*time.Millisecond, func() { e.Gateway.SetClassifier(nil) })
	// The gateway's own upstream goes dark: its outbound series for
	// frontend then holds 2xx, 5xx and errors side by side.
	e.Sched.At(1700*time.Millisecond, func() {
		for _, p := range e.Cluster.Pods() {
			if p.Label("app") == "frontend" {
				p.Partition(true)
				p.Host().ResetConns()
			}
		}
	})
	e.Sched.RunFor(8 * time.Second)

	got := e.Mesh.Metrics().Dump() + "\n"
	// The scenario must keep reaching every path it exists to cover.
	for _, want := range []string{
		`code=5xx,direction=outbound`, `code=error,direction=outbound`, `code=ok,direction=inbound`,
		`counter ` + mesh.MetricRequestsTotal + `{code=error,direction=outbound,service=catalog}`,
		`{code=2xx,direction=outbound,service=frontend}`, `{code=5xx,direction=outbound,service=frontend}`,
		`{code=error,direction=outbound,service=frontend}`,
		`counter ` + mesh.MetricRetriesTotal, `counter ` + mesh.MetricFallbackServedTotal,
		`counter ` + mesh.MetricAdmissionShedTotal, `counter ` + mesh.MetricHealthProbeAnswered,
		`counter ` + mesh.MetricOutlierEjectionsTotal,
		`histogram ` + mesh.MetricGatewayRequestDuration + `{direction=inbound,priority=high,`,
		`histogram ` + mesh.MetricGatewayRequestDuration + `{direction=inbound,priority=low,`,
		`histogram ` + mesh.MetricGatewayRequestDuration + `{direction=inbound,service=`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("dump holds no %q: the scenario no longer reaches that path", want)
		}
	}
	if *update {
		if err := os.WriteFile(meshSeriesFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(meshSeriesFile)
	if err != nil {
		t.Fatalf("%v (record it with: go test -run TestMeshSeriesUnchanged -update .)", err)
	}
	sameBytes(t, "Metrics().Dump()", got, string(want))
}
