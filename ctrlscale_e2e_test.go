package meshlayer

import (
	"testing"
	"time"

	"meshlayer/internal/lint/leakcheck"
	"meshlayer/internal/simnet"
)

// E21 at test scale: 200 worker sidecars, the same deploy storm and
// mid-storm control-plane crash, comparing the undefended rung against
// a fully defended one (knobs scaled to the fleet: 50 in-flight pushes,
// 16 resync slots). cmd/meshbench -exp ctrlscale is the 10k version.
//
// The physics carries over: the control-plane egress is provisioned so
// a whole-fleet resync takes ~4s of line rate (2x the push timeout), so
// the undefended stampede divides the link fleet-ways and no transfer
// beats the timeout, while paced pushes finish comfortably.
func TestCtrlScaleDefenseLadder(t *testing.T) {
	leakcheck.Check(t)
	seed := int64(5)
	warmup, measure := time.Second, 12*time.Second
	l0 := runCtrlScaleOnce(simnet.FidelityHybrid, ctrlScaleDefense{name: "l0"}, 200, seed, warmup, measure)
	l3 := runCtrlScaleOnce(simnet.FidelityHybrid, ctrlScaleDefense{name: "l3", backoff: true, inflight: 50, resyncs: 16},
		200, seed, warmup, measure)

	for _, r := range []CtrlScaleRow{l0, l3} {
		if r.Crashes != 1 {
			t.Fatalf("%s: crashes = %d, want exactly the scripted one", r.Config, r.Crashes)
		}
		if r.FullPushes == 0 || r.Resyncs == 0 || r.WireBytes == 0 {
			t.Fatalf("%s: the crash should force full resyncs: %+v", r.Config, r)
		}
		// Static stability: sidecars keep routing on last-good snapshots
		// through the outage — availability must not collapse at any rung.
		if r.Avail < 0.95 || r.TailAvail < 0.90 {
			t.Fatalf("%s: availability collapsed despite last-good snapshots: %+v", r.Config, r)
		}
	}

	// The undefended rung stampedes: the whole fleet shares the egress
	// link at once and never converges within the run.
	if l0.Recovered {
		t.Fatalf("undefended rung recovered in %v; the stampede should thrash forever", l0.RecoveredIn)
	}
	if l0.PeakInflight < 150 {
		t.Fatalf("undefended peak inflight = %d, want a fleet-wide stampede", l0.PeakInflight)
	}
	if l0.Timeouts < 4*l3.Timeouts {
		t.Fatalf("timeouts l0=%d l3=%d; the stampede should dwarf the paced rung", l0.Timeouts, l3.Timeouts)
	}
	if l0.ResyncBytes < 2*l3.ResyncBytes {
		t.Fatalf("resync bytes l0=%d l3=%d; repeated failed fulls should dominate", l0.ResyncBytes, l3.ResyncBytes)
	}

	// The defended rung converges with bounded concurrency.
	if !l3.Recovered {
		t.Fatal("defended rung did not converge after the crash")
	}
	if l3.PeakInflight > 50 {
		t.Fatalf("defended peak inflight = %d, want <= 50 (the cap)", l3.PeakInflight)
	}
	if l3.PeakResyncs == 0 || l3.PeakResyncs > 16 {
		t.Fatalf("defended peak resyncs = %d, want in (0, 16] (the admission window)", l3.PeakResyncs)
	}
	if l3.MaxLag == 0 {
		t.Fatal("no version lag recorded across a crash plus deploy storm")
	}
}
