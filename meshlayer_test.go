package meshlayer

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func shortMixed(rps float64) MixedConfig {
	return MixedConfig{RPS: rps, Seed: 3, Warmup: time.Second, Measure: 4 * time.Second, Cooldown: 500 * time.Millisecond}
}

func TestOptimizationString(t *testing.T) {
	if None().String() != "baseline" {
		t.Fatalf("None() = %q", None().String())
	}
	if got := PaperOptimizations().String(); got != "routing+tc" {
		t.Fatalf("paper opts = %q", got)
	}
	if got := AllOptimizations().String(); got != "routing+scavenger+tc+sdn" {
		t.Fatalf("all opts = %q", got)
	}
	if None().Any() || !AllOptimizations().Any() {
		t.Fatal("Any() broken")
	}
}

func TestScenarioBaselineHasNoController(t *testing.T) {
	s := NewScenario(ScenarioConfig{})
	if s.CrossLayer != nil || s.SDN != nil {
		t.Fatal("baseline scenario must not install cross-layer machinery")
	}
}

func TestScenarioSDNVariantWiresController(t *testing.T) {
	s := NewScenario(ScenarioConfig{Opt: AllOptimizations(), Seed: 2})
	if s.CrossLayer == nil || s.SDN == nil {
		t.Fatal("full scenario missing controllers")
	}
	// The alternate ratings uplink must exist: ratings node has 2 NICs.
	if got := len(s.App.Ratings.Node().NICs()); got != 2 {
		t.Fatalf("ratings NICs = %d, want 2 (primary + TE alternate)", got)
	}
}

func TestServeBothClasses(t *testing.T) {
	s := NewScenario(ScenarioConfig{Opt: PaperOptimizations(), Seed: 1})
	var prodLat, anaLat time.Duration
	s.Serve(ProductRequest, func(lat time.Duration, status int, err error) {
		if err != nil || status != 200 {
			t.Fatalf("product: status=%d err=%v", status, err)
		}
		prodLat = lat
	})
	s.Serve(AnalyticsRequest, func(lat time.Duration, status int, err error) {
		if err != nil || status != 200 {
			t.Fatalf("analytics: status=%d err=%v", status, err)
		}
		anaLat = lat
	})
	s.Run()
	if prodLat == 0 || anaLat == 0 {
		t.Fatal("callbacks did not fire")
	}
	if anaLat < prodLat {
		t.Fatalf("analytics (%v) should be slower than product (%v): 2MB over 1Gbps", anaLat, prodLat)
	}
}

func TestTraceTreesAnnotated(t *testing.T) {
	s := NewScenario(ScenarioConfig{Opt: PaperOptimizations(), Seed: 1})
	s.Serve(ProductRequest, nil)
	s.Run()
	trees := s.TraceTrees()
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	if !strings.Contains(trees[0], "priority=high") || !strings.Contains(trees[0], "ratings") {
		t.Fatalf("tree missing annotations:\n%s", trees[0])
	}
}

func TestRunMixedProducesBothResults(t *testing.T) {
	r := RunMixedOnce(PaperOptimizations(), shortMixed(20))
	if r.LS.Count == 0 || r.LI.Count == 0 {
		t.Fatalf("counts: LS=%d LI=%d", r.LS.Count, r.LI.Count)
	}
	if r.LS.Errors != 0 || r.LI.Errors != 0 {
		t.Fatalf("errors: LS=%d LI=%d", r.LS.Errors, r.LI.Errors)
	}
	if r.LS.P99 < r.LS.P50 || r.LI.P99 < r.LI.P50 {
		t.Fatal("percentile ordering broken")
	}
	if r.LI.P50 < r.LS.P50 {
		t.Fatalf("LI p50 (%v) should exceed LS p50 (%v)", r.LI.P50, r.LS.P50)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() MixedResult { return RunMixedOnce(AllOptimizations(), shortMixed(25)) }
	a, b := run(), run()
	if a.LS.P99 != b.LS.P99 || a.LI.P99 != b.LI.P99 || a.LS.Count != b.LS.Count {
		t.Fatalf("nondeterministic: %+v vs %+v", a.LS, b.LS)
	}
}

func TestCrossLayerHelpsAtHighLoad(t *testing.T) {
	base := RunMixedOnce(None(), shortMixed(45))
	opt := RunMixedOnce(PaperOptimizations(), shortMixed(45))
	if float64(base.LS.P99) < 1.5*float64(opt.LS.P99) {
		t.Fatalf("LS p99 improvement < 1.5x: base=%v opt=%v", base.LS.P99, opt.LS.P99)
	}
}

func TestRunSweepDefaults(t *testing.T) {
	pts := RunSweep(SweepConfig{RPSLevels: []float64{15}, Warmup: time.Second, Measure: 3 * time.Second})
	if len(pts) != 1 || pts[0].RPS != 15 {
		t.Fatalf("points = %+v", pts)
	}
	out := FormatFig4(pts)
	if !strings.Contains(out, "15") || !strings.Contains(out, "p99") {
		t.Fatalf("format missing columns:\n%s", out)
	}
	li := FormatLICost(pts)
	if !strings.Contains(li, "delta") {
		t.Fatalf("LI cost table malformed:\n%s", li)
	}
}

func TestSidecarOverheadMonotone(t *testing.T) {
	rows := RunSidecarOverhead(300, 1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].P50 >= rows[1].P50 {
		t.Fatalf("proxy overhead did not increase p50: %v vs %v", rows[0].P50, rows[1].P50)
	}
	if rows[1].P99 >= rows[2].P99 {
		t.Fatalf("4x proxy cost did not increase p99: %v vs %v", rows[1].P99, rows[2].P99)
	}
	if rows[1].OverheadP99 <= 0 {
		t.Fatal("added p99 must be positive")
	}
	if !strings.Contains(FormatOverhead(rows), "sidecars") {
		t.Fatal("format broken")
	}
}

func TestHopDepthScaling(t *testing.T) {
	rows := RunHopDepth([]int{1, 8}, 100, 1)
	if rows[1].P50 < 4*rows[0].P50 {
		t.Fatalf("depth-8 p50 (%v) not ~8x depth-1 (%v)", rows[1].P50, rows[0].P50)
	}
	if !strings.Contains(FormatHopDepth(rows), "per hop") {
		t.Fatal("format broken")
	}
}

func TestAdaptiveLBTableShape(t *testing.T) {
	rows := RunAdaptiveLB(40, 2)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var ewma, rr *LBRow
	for i := range rows {
		switch string(rows[i].Policy) {
		case "ewma":
			ewma = &rows[i]
		case "round_robin":
			rr = &rows[i]
		}
	}
	if ewma == nil || rr == nil {
		t.Fatal("policies missing")
	}
	if ewma.P99 >= rr.P99 {
		t.Fatalf("EWMA p99 (%v) should beat round robin (%v)", ewma.P99, rr.P99)
	}
	if ewma.SlowShare >= 0.15 {
		t.Fatalf("EWMA slow share = %.2f, want near 0", ewma.SlowShare)
	}
}

func TestRedundantCutsTail(t *testing.T) {
	rows := RunRedundant(20, 1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].P99 >= rows[0].P99 {
		t.Fatalf("hedging did not cut p99: %v vs %v", rows[1].P99, rows[0].P99)
	}
}

func TestScavengerOrdering(t *testing.T) {
	rows := RunScavenger(1)
	byCC := map[string]ScavengerRow{}
	for _, r := range rows {
		byCC[r.CC] = r
	}
	// Scavengers must give the short transfers far better tails than
	// loss-based controllers.
	if float64(byCC["reno"].LSP99) < 2*float64(byCC["ledbat"].LSP99) {
		t.Fatalf("ledbat did not yield: reno p99=%v ledbat p99=%v", byCC["reno"].LSP99, byCC["ledbat"].LSP99)
	}
	// And still use an idle link substantially.
	if byCC["ledbat"].BulkAloneMbps < 70 {
		t.Fatalf("ledbat idle-link goodput = %.1f Mbps", byCC["ledbat"].BulkAloneMbps)
	}
}

func TestAblationBaselineWorst(t *testing.T) {
	rows := RunAblation(40, 1, MixedConfig{Warmup: time.Second, Measure: 4 * time.Second})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	base := rows[0].LSP99
	full := rows[2].LSP99 // routing+tc
	if float64(base) < 1.5*float64(full) {
		t.Fatalf("routing+tc did not clearly beat baseline: %v vs %v", base, full)
	}
	if !strings.Contains(FormatAblation(rows, 40), "baseline") {
		t.Fatal("format broken")
	}
}

func TestResilienceMasksPartition(t *testing.T) {
	rows := RunResilience(20, 2)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	noRez, rez := rows[1], rows[4]
	if noRez.Phase != "during partition" || rez.Phase != "during partition" {
		t.Fatalf("row order wrong: %+v", rows)
	}
	if noRez.ErrorRate == 0 {
		t.Fatal("partition caused no errors without resilience")
	}
	if rez.ErrorRate >= noRez.ErrorRate/2 {
		t.Fatalf("resilience did not reduce errors: %.2f vs %.2f", rez.ErrorRate, noRez.ErrorRate)
	}
	// After healing, the resilient config fully recovers.
	after := rows[5]
	if after.ErrorRate != 0 {
		t.Fatalf("errors after heal: %.2f", after.ErrorRate)
	}
	if !strings.Contains(FormatResilience(rows), "partition") {
		t.Fatal("format broken")
	}
}

func TestChartAndCSVOutputs(t *testing.T) {
	pts := RunSweep(SweepConfig{RPSLevels: []float64{20}, Warmup: time.Second, Measure: 3 * time.Second})
	chart := ChartFig4(pts)
	if !strings.Contains(chart, "w/o cross-layer optimization (p99)") {
		t.Fatalf("chart legend missing:\n%s", chart)
	}
	csv := CSVFig4(pts)
	if !strings.HasPrefix(csv, "rps,") || !strings.Contains(csv, "20,") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}

func TestBottleneckAndSkewSweeps(t *testing.T) {
	short := MixedConfig{Warmup: time.Second, Measure: 3 * time.Second}
	b := RunBottleneckSweep([]float64{1, 4}, 1, short)
	if len(b) != 2 || b[0].RateGbps != 1 {
		t.Fatalf("bottleneck rows: %+v", b)
	}
	// Tighter bottleneck must show a bigger (or equal) win.
	winTight := float64(b[0].BaseP99) / float64(b[0].OptP99)
	winLoose := float64(b[1].BaseP99) / float64(b[1].OptP99)
	if winTight < winLoose {
		t.Fatalf("tight %.1fx < loose %.1fx", winTight, winLoose)
	}
	s := RunSkewSweep([]float64{0.5, 2}, 1, short)
	if len(s) != 2 || s[0].SkewFactor >= s[1].SkewFactor {
		t.Fatalf("skew rows: %+v", s)
	}
	if !strings.Contains(FormatBottleneck(b), "Gbps") || !strings.Contains(FormatSkew(s), "skew") {
		t.Fatal("formats broken")
	}
}

func TestQdiscComparisonShape(t *testing.T) {
	rows := RunQdiscComparison(40, 1, MixedConfig{Warmup: time.Second, Measure: 4 * time.Second})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	fifo, ns := rows[0], rows[3]
	if float64(fifo.LSP99) < 1.3*float64(ns.LSP99) {
		t.Fatalf("nearstrict (%v) did not clearly beat droptail (%v) for LS p99", ns.LSP99, fifo.LSP99)
	}
	if !strings.Contains(FormatQdiscComparison(rows, 40), "nearstrict") {
		t.Fatal("format broken")
	}
}

func TestParseOptimizations(t *testing.T) {
	cases := map[string]Optimization{
		"":              {},
		"baseline":      {},
		"none":          {},
		"routing":       {Routing: true},
		"routing,tc":    {Routing: true, TC: true},
		"tc, scavenger": {TC: true, Scavenger: true},
		"all":           AllOptimizations(),
		"sdn,routing":   {Routing: true, SDN: true},
		"routing+tc":    {Routing: true, TC: true},
		"tc+sdn,":       {TC: true, SDN: true},
	}
	for in, want := range cases {
		got, err := ParseOptimizations(in)
		if err != nil || got != want {
			t.Fatalf("ParseOptimizations(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	if _, err := ParseOptimizations("warpdrive"); err == nil {
		t.Fatal("unknown optimization accepted")
	}
}

// FuzzParseOptimizations: -opts is user input, so no value may panic
// the parser, and an accepted combination must parse back from its
// String, the spelling meshbench prints in its sweep header.
//
//	go test -run '^$' -fuzz FuzzParseOptimizations -fuzztime 30s .
func FuzzParseOptimizations(f *testing.F) {
	for _, in := range []string{"", "baseline", "routing,tc", "routing+tc", "tc, scavenger", "all", "sdn+all", "warpdrive", ",+,"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		o, err := ParseOptimizations(in)
		if err != nil {
			return
		}
		if back, err := ParseOptimizations(o.String()); err != nil || back != o {
			t.Errorf("ParseOptimizations(%q) = %+v, whose String %q parses to %+v, %v", in, o, o.String(), back, err)
		}
	})
}

// TestOverloadProtection asserts E14's acceptance shape on shortened
// windows: with admission on at 2x offered load the latency-sensitive
// class keeps its goodput and a bounded p99, while the unprotected
// baseline collapses; deadline propagation cancels doomed child calls
// before they reach the backend.
func TestOverloadProtection(t *testing.T) {
	rows := RunOverload(1, 2*time.Second, 6*time.Second)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]OverloadRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s@%.1f", r.Config, r.Load)] = r
	}

	// Unprotected overload collapses LS latency by an order of magnitude.
	dis, disOver := byKey["disabled@0.5"], byKey["disabled@2.0"]
	if float64(disOver.LSP99) < 10*float64(dis.LSP99) {
		t.Fatalf("disabled overload p99 %v vs %v: expected collapse", disOver.LSP99, dis.LSP99)
	}

	// Admission keeps LS p99 within 2x its pre-overload value and LS
	// goodput >= 95% of offered.
	adm, admOver := byKey["admission@0.5"], byKey["admission@2.0"]
	if float64(admOver.LSP99) > 2*float64(adm.LSP99) {
		t.Fatalf("admission overload p99 %v vs %v: bound exceeded", admOver.LSP99, adm.LSP99)
	}
	if admOver.LSGoodput < 0.95 {
		t.Fatalf("admission LS goodput = %.1f%%, want >= 95%%", 100*admOver.LSGoodput)
	}
	if admOver.Shed == 0 {
		t.Fatal("admission shed nothing under 2x overload")
	}

	// Deadline propagation cancels doomed child calls, cutting backend
	// work relative to the unprotected run.
	dl := byKey["deadline only@2.0"]
	if dl.Cancelled == 0 {
		t.Fatal("deadline propagation cancelled no child calls")
	}
	if dl.BackendWork >= disOver.BackendWork {
		t.Fatalf("backend work %d with deadlines vs %d without: no waste cut", dl.BackendWork, disOver.BackendWork)
	}

	if !strings.Contains(FormatOverload(rows), "E14") {
		t.Fatal("format broken")
	}
}
