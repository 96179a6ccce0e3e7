package meshlayer

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// Params carries the values of cmd/meshbench's flags into an
// experiment; each entry reads the ones it needs. (-parallel is the
// process-wide MaxParallel, and -exp picks the entries. There is no
// fidelity flag: E20 and E21 set it on the networks they build.)
type Params struct {
	Seed            int64
	RPS             float64   // ablation and qdisc load, per workload
	Levels          []float64 // fig4 sweep RPS levels
	Warmup, Measure time.Duration
	Opt             Optimization // fig4 sweep's optimized arm
	Chart, CSV      bool         // fig4 rendering
	Zones           int          // E20 fan-in zones, 0 = the full 100
	Subs            int          // E21 subscribers, 0 = the full 10k
}

// DefaultParams are meshbench's flag defaults: the paper-scale run.
func DefaultParams() Params {
	return Params{
		Seed: 1, RPS: 40, Levels: []float64{10, 20, 30, 40, 50},
		Warmup: 2 * time.Second, Measure: 20 * time.Second,
		Opt: PaperOptimizations(),
	}
}

// Experiment is one registry entry: an id meshbench's -exp accepts.
type Experiment struct {
	ID string
	// InAll marks the entries -exp all runs; the rest run only when
	// named.
	InAll bool
	// Golden are the settings testdata/golden/<ID>.txt was recorded at
	// (TestGoldens replays them).
	Golden Params
	// Run returns what -exp ID prints, less the final newline.
	Run func(Params) string
}

// smoke is the golden setting of the InAll entries: windows short
// enough to replay every table's shape in seconds.
func smoke() Params {
	p := DefaultParams()
	p.Seed, p.Warmup, p.Measure = 7, time.Second, 4*time.Second
	return p
}

// Experiments is the registry, in -exp all output order with the
// explicit-only entries last. It is the one place an experiment id is
// written: meshbench's usage text, dispatch and unknown-id error, and
// TestGoldens all iterate it.
var Experiments = []Experiment{
	{"fig4", true, smoke(), func(p Params) string { return sweepTables(p, true, false) }},
	{"licost", true, smoke(), func(p Params) string { return sweepTables(p, false, true) }},
	{"overhead", true, smoke(), func(p Params) string { return FormatOverhead(RunSidecarOverhead(2000, p.Seed)) }},
	{"ablation", true, smoke(), func(p Params) string { return FormatAblation(RunAblation(p.RPS, p.Seed, p.mixed()), p.RPS) }},
	{"scavenger", true, smoke(), func(p Params) string { return FormatScavenger(RunScavenger(p.Seed)) }},
	{"adaptivelb", true, smoke(), func(p Params) string { return FormatAdaptiveLB(RunAdaptiveLB(50, p.Seed)) }},
	{"redundant", true, smoke(), func(p Params) string { return FormatRedundant(RunRedundant(30, p.Seed)) }},
	{"hops", true, smoke(), func(p Params) string { return FormatHopDepth(RunHopDepth(nil, 500, p.Seed)) }},
	{"bottleneck", true, smoke(), func(p Params) string { return FormatBottleneck(RunBottleneckSweep(nil, p.Seed, p.mixed())) }},
	{"skew", true, smoke(), func(p Params) string { return FormatSkew(RunSkewSweep(nil, p.Seed, p.mixed())) }},
	{"resilience", true, smoke(), func(p Params) string { return FormatResilience(RunResilience(30, p.Seed)) }},
	{"qdisc", true, smoke(), func(p Params) string {
		return FormatQdiscComparison(RunQdiscComparison(p.RPS, p.Seed, p.mixed()), p.RPS)
	}},
	{"overload", true, smoke(), func(p Params) string { return FormatOverload(RunOverload(p.Seed, p.Warmup, p.Measure)) }},
	{"chaos", true, smoke(), func(p Params) string { return FormatChaos(RunChaos(p.Seed, p.Warmup, p.Measure)) }},
	{"zonefail", true, smoke(), func(p Params) string { return FormatZoneFail(RunZoneFail(p.Seed, p.Warmup, p.Measure)) }},
	{"ctrlplane", true, smoke(), func(p Params) string { return FormatCtrlPlane(RunCtrlPlane(p.Seed, p.Warmup, p.Measure)) }},
	{"federation", true, smoke(), func(p Params) string { return FormatFederation(RunFederation(p.Seed, p.Warmup, p.Measure)) }},
	// E20 is deterministic but deliberately heavyweight (a 10k-pod
	// sweep), so it runs only when named; its golden is 20 zones.
	{"fidelity", false, func() Params { p := DefaultParams(); p.Zones = 20; return p }(),
		func(p Params) string { return FormatFidelity(RunFidelityBench(p.Zones, 0)) }},
	// E21 runs a 10k-sidecar fleet under hybrid fidelity (its own
	// per-network setting); explicit-only for the same reason, golden
	// at 1000 subscribers over the 12 s its storm needs to converge.
	{"ctrlscale", false, func() Params { p := smoke(); p.Subs, p.Measure = 1000, 12*time.Second; return p }(),
		func(p Params) string { return FormatCtrlScale(RunCtrlScale(p.Seed, p.Subs, p.Warmup, p.Measure)) }},
}

// IDs lists the registry's ids in order, and those of them that run
// only when named.
func IDs() (ids, explicit []string) {
	for _, e := range Experiments {
		ids = append(ids, e.ID)
		if !e.InAll {
			explicit = append(explicit, e.ID)
		}
	}
	return ids, explicit
}

func (p Params) mixed() MixedConfig { return MixedConfig{Warmup: p.Warmup, Measure: p.Measure} }

// sweepTables runs the Fig. 4 sweep once and renders, under its
// "# sweep:" header, whichever of its two tables are asked for.
func sweepTables(p Params, fig4, licost bool) string {
	pts := RunSweep(SweepConfig{RPSLevels: p.Levels, Opt: p.Opt, Seed: p.Seed, Warmup: p.Warmup, Measure: p.Measure})
	out := fmt.Sprintf("# sweep: opts=%s levels=%v measure=%v seed=%d\n\n", p.Opt, p.Levels, p.Measure, p.Seed)
	if fig4 && p.CSV {
		out += CSVFig4(pts)
	} else if fig4 {
		out += FormatFig4(pts) + "\n"
	}
	if fig4 && p.Chart {
		out += ChartFig4(pts) + "\n"
	}
	if licost {
		out += FormatLICost(pts) + "\n"
	}
	return strings.TrimSuffix(out, "\n")
}

// RunExperiment writes to w what `meshbench -exp id` prints at p: the
// named entry's tables, or every InAll entry's for "all". Bad input —
// an unknown id, a non-positive rate or window — is an error, reported
// before anything runs.
func RunExperiment(w io.Writer, id string, p Params) error {
	if err := p.validate(id); err != nil {
		return err
	}
	for _, e := range Experiments {
		switch {
		case id == "all" && e.ID == "fig4":
			// fig4 and licost are two tables of one sweep: "all" runs
			// it once, under one header, for both.
			fmt.Fprintln(w, sweepTables(p, true, true))
		case id == "all" && e.ID == "licost": // printed with fig4, above
		case e.ID == id || id == "all" && e.InAll:
			fmt.Fprintln(w, e.Run(p))
		}
	}
	return nil
}

// validate rejects what would otherwise panic deep in a run (a
// non-positive rate or window) or silently print nothing.
func (p Params) validate(id string) error {
	ids, _ := IDs()
	switch {
	case id != "all" && !slices.Contains(ids, id):
		return fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(ids, ", "))
	case p.RPS <= 0:
		return fmt.Errorf("rps must be > 0, got %v", p.RPS)
	case p.Warmup <= 0 || p.Measure <= 0:
		return fmt.Errorf("warmup and measure must be > 0, got %v and %v", p.Warmup, p.Measure)
	case p.Zones < 0 || p.Subs < 0:
		return fmt.Errorf("zones and subs must be >= 0, got %d and %d", p.Zones, p.Subs)
	case p.CSV && id != "fig4":
		return fmt.Errorf("csv renders only fig4, not %s", id)
	}
	return nil
}
