package mesh

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMetricNamingConvention audits every metric family the mesh
// registers against the repo-wide naming convention:
//
//   - every family carries a subsystem prefix: mesh_, gateway_, or
//     ctrlplane_;
//   - counters end in _total;
//   - histograms end in _duration or _seconds;
//   - gauges are exempt from the suffix rule (they name a level, e.g.
//     mesh_admission_queue_depth, ctrlplane_version_lag).
//
// The scenario below exercises the data plane, the gateway, and the
// distributing control plane so all three subsystems register their
// families before the audit runs.
func TestMetricNamingConvention(t *testing.T) {
	tb := buildBed(t, Config{Seed: 1}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})
	cp.SetHealthCheck("backend", HealthCheckPolicy{Enabled: true})
	if got := serveOK(t, tb); got == "" {
		t.Fatalf("scenario request failed; metric families not populated")
	}
	tb.sched.RunFor(2 * time.Second)

	prefix := regexp.MustCompile(`^(mesh|gateway|ctrlplane)_`)
	fams := tb.m.Metrics().Families()
	if len(fams) == 0 {
		t.Fatal("no metric families registered")
	}
	seen := map[string]bool{}
	for _, f := range fams {
		m := prefix.FindString(f.Name)
		if m == "" {
			t.Errorf("family %q (%s) lacks a subsystem prefix (mesh_, gateway_, ctrlplane_)", f.Name, f.Kind)
			continue
		}
		seen[strings.TrimSuffix(m, "_")] = true
		switch f.Kind {
		case "counter":
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %q must end in _total", f.Name)
			}
		case "histogram":
			if !strings.HasSuffix(f.Name, "_duration") && !strings.HasSuffix(f.Name, "_seconds") {
				t.Errorf("histogram %q must end in _duration or _seconds", f.Name)
			}
		}
	}
	for _, want := range []string{"mesh", "gateway", "ctrlplane"} {
		if !seen[want] {
			t.Errorf("scenario registered no %s_* families; audit coverage regressed", want)
		}
	}
}
