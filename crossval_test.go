package meshlayer

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/simnet"
)

// Cross-validation of the hybrid fidelity mode where it runs: E21's
// defense ladder (RunCtrlScale builds every rung under hybrid) and
// E20's per-zone fan-in are rerun in packet mode, and each headline
// metric must land within a stated tolerance of the packet-mode
// reference. The tolerances encode the fidelity contract documented in
// DESIGN.md ("Fidelity modes"): small RPCs are byte-exact in every mode
// (tight), bulk-transfer latencies are rate-accurate but not
// queue-accurate (loose), and availability is preserved because faults
// always demote to packets (absolute points). Where hybrid is known to
// miss the contract, the metric is pinned in knownGaps.

// tol passes when |hybrid-packet| <= max(abs, rel*|packet|).
type tol struct{ rel, abs float64 }

var (
	tolExact = tol{0.00, 0.000} // counts both modes must reproduce
	tolTight = tol{0.10, 0.002} // RPC paths: hybrid leaves them on packets
	tolMed   = tol{0.40, 0.020} // mixed paths: some bulk sharing upstream
	tolLoose = tol{0.90, 0.100} // bulk-dominated tails: rate-accurate only
	tolFrac  = tol{0.00, 0.05}  // availability / shares: 5 points absolute
)

// indicator encodes a qualitative claim as a 0/1 metric: both
// fidelities must agree on it.
func indicator(name string, claim bool) metric {
	v := 0.0
	if claim {
		v = 1
	}
	return metric{name, v, tolFrac}
}

type metric struct {
	name string
	val  float64
	t    tol
}

func m(name string, v float64, t tol) metric        { return metric{name, v, t} }
func md(name string, d time.Duration, t tol) metric { return metric{name, d.Seconds(), t} }

// knownGaps names, as "<case>/<metric>", every metric where hybrid is
// known to land outside its tolerance, with both readings. A pinned
// metric must still fail: once the gap closes (ROADMAP item 1b), the
// test goes red until its pin is deleted.
var knownGaps = map[string]string{
	// Packet mode's L2 never converges in the window (1,172 push
	// timeouts, 35.7 MB of resyncs); hybrid's converges in 4.4 s (867
	// timeouts, 27.2 MB). Timeouts and bytes stay inside tolLoose.
	"E21 seed 1/L2 recovered": "packet: no recovery in the window; hybrid: recovered",
	"E21 seed 1/L2 recovery":  "packet: DNF (0); hybrid: 4.4 s",
	// The 99 -> 1 fan-in into one collector: packet mode finishes at
	// 205.72 ms, hybrid at 12.45 ms against a line-rate time of 12.33 ms.
	"E20 fan-in 1x100/done": "packet: 205.72 ms; hybrid: 12.45 ms (line rate 12.33 ms)",
}

// crossCase is one experiment: run executes it under fid and distills
// the metrics under test. The same closure runs for both arms, so
// metric order is identical by construction and the comparison is
// positional.
type crossCase struct {
	name  string
	short bool // also runs under -short
	run   func(t *testing.T, fid simnet.Fidelity) []metric
}

// ctrlScaleCase is E21's four rungs at 1,000 subscribers over the
// golden's 12 s window.
func ctrlScaleCase(seed int64) crossCase {
	return crossCase{fmt.Sprintf("E21 seed %d", seed), false, func(_ *testing.T, fid simnet.Fidelity) []metric {
		rows := sweepRows(len(ctrlScaleLadder), func(i int) CtrlScaleRow {
			return runCtrlScaleOnce(fid, ctrlScaleLadder[i], 1000, seed, time.Second, 12*time.Second)
		})
		var out []metric
		for _, r := range rows {
			rung := r.Config[:strings.Index(r.Config, ":")]
			out = append(out,
				m(rung+" crashes", float64(r.Crashes), tolExact),
				indicator(rung+" recovered", r.Recovered),
				md(rung+" recovery", r.RecoveredIn, tolLoose),
				m(rung+" avail", r.Avail, tolFrac),
				m(rung+" storm avail", r.StormAvail, tolFrac),
				m(rung+" tail avail", r.TailAvail, tolFrac),
				md(rung+" req p99", r.ReqP99, tolTight),
				m(rung+" peak inflight", float64(r.PeakInflight), tolMed),
				m(rung+" peak resyncs", float64(r.PeakResyncs), tolMed),
				m(rung+" resync MB", float64(r.ResyncBytes)/(1<<20), tolLoose),
				m(rung+" timeouts", float64(r.Timeouts), tolLoose),
				md(rung+" stale p99", r.StaleP99, tolLoose))
		}
		return out
	}}
}

func crossCases() []crossCase {
	return []crossCase{
		ctrlScaleCase(1),
		ctrlScaleCase(7),
		{"E20 fan-in 1x100", true, func(t *testing.T, fid simnet.Fidelity) []metric {
			const zones, pods = 1, 100
			p := fidelityScaleOnce(fid, zones, pods)
			// Every byte crosses the collector's access link, so no
			// fidelity may finish before that link's line-rate time.
			lineRate := time.Duration(p.TotalMB * (1 << 20) * 8 / float64(cluster.DefaultLink.Rate) * float64(time.Second))
			if p.Done < lineRate {
				t.Errorf("%v: done at %v, before the line-rate time %v", fid, p.Done, lineRate)
			}
			return []metric{
				m("delivered", float64(p.Delivered), tolExact),
				md("done", p.Done, tolLoose),
			}
		}},
	}
}

// TestHybridCrossValidation runs each case under packet and hybrid
// fidelity and asserts every metric against its packet-mode reference,
// except the pinned knownGaps, which must still miss. Failures print a
// per-metric diff table.
func TestHybridCrossValidation(t *testing.T) {
	ran, seen := map[string]bool{}, map[string]bool{}
	for _, c := range crossCases() {
		if testing.Short() && !c.short {
			continue
		}
		ran[c.name] = true
		t.Run(c.name, func(t *testing.T) {
			var ref, got []metric
			runIndexed(2, func(i int) {
				if i == 0 {
					ref = c.run(t, simnet.FidelityPacket)
				} else {
					got = c.run(t, simnet.FidelityHybrid)
				}
			})
			if len(got) != len(ref) {
				t.Fatalf("metric count changed across fidelities: %d vs %d", len(ref), len(got))
			}
			var b strings.Builder
			failed := false
			fmt.Fprintf(&b, "%-34s %12s %12s %10s %10s  %s\n",
				"metric", "packet", "hybrid", "diff", "allowed", "ok")
			for i, r := range ref {
				h := got[i]
				if h.name != r.name {
					t.Fatalf("metric %d renamed across fidelities: %q vs %q", i, r.name, h.name)
				}
				allowed := math.Max(r.t.abs, r.t.rel*math.Abs(r.val))
				diff := math.Abs(h.val - r.val)
				ok := fmt.Sprint(diff <= allowed)
				gap, pinned := knownGaps[c.name+"/"+r.name]
				seen[c.name+"/"+r.name] = true
				switch {
				case pinned && diff <= allowed:
					failed = true
					ok = "true, but pinned as a known gap (" + gap + "): delete its pin"
				case pinned:
					ok = "pinned (" + gap + ")"
				case diff > allowed:
					failed = true
				}
				fmt.Fprintf(&b, "%-34s %12.6g %12.6g %10.4g %10.4g  %s\n",
					r.name, r.val, h.val, diff, allowed, ok)
			}
			if failed {
				t.Errorf("hybrid fidelity outside tolerance, or a pinned gap closed:\n%s", b.String())
			} else {
				t.Logf("\n%s", b.String())
			}
		})
	}
	for gap := range knownGaps {
		if c, _, _ := strings.Cut(gap, "/"); ran[c] && !seen[gap] {
			t.Errorf("knownGaps pins %q, which no case reports", gap)
		}
	}
}
