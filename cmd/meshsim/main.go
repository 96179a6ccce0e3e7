// Command meshsim runs one mixed-workload scenario and prints a
// wrk2-style report plus mesh telemetry — the interactive tool for
// poking at the testbed.
//
// Usage:
//
//	meshsim -rps 40 -opts routing,tc -measure 30s -telemetry
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"meshlayer"
	"meshlayer/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: 0 on success,
// 2 with a one-line message on stderr for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rps       = fs.Float64("rps", 40, "per-workload requests per second")
		opts      = fs.String("opts", "", "optimizations: routing,tc,scavenger,sdn,all (empty = baseline)")
		seed      = fs.Int64("seed", 1, "random seed")
		warmup    = fs.Duration("warmup", 2*time.Second, "warm-up window")
		measure   = fs.Duration("measure", 20*time.Second, "measured window")
		telemetry = fs.Bool("telemetry", false, "dump mesh telemetry after the run")
		timeline  = fs.Bool("timeline", false, "print per-second latency CSV for both workloads")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt, err := meshlayer.ParseOptimizations(*opts)
	switch {
	case err != nil: // the -opts error stands
	case *rps <= 0:
		err = fmt.Errorf("rps must be > 0, got %v", *rps)
	case *warmup <= 0 || *measure <= 0:
		err = fmt.Errorf("warmup and measure must be > 0, got %v and %v", *warmup, *measure)
	}
	if err != nil {
		fmt.Fprintln(stderr, "meshsim:", err)
		return 2
	}

	s := meshlayer.NewScenario(meshlayer.ScenarioConfig{Opt: opt, Seed: *seed})
	mixed := meshlayer.MixedConfig{RPS: *rps, Seed: *seed, Warmup: *warmup, Measure: *measure}
	var lsTL, liTL *workload.Timeline
	if *timeline {
		lsTL = workload.NewTimeline(0, time.Second)
		liTL = workload.NewTimeline(0, time.Second)
		mixed.LSObserver = lsTL.Observe
		mixed.LIObserver = liTL.Observe
	}
	res := s.RunMixed(mixed)

	fmt.Fprintf(stdout, "scenario: %s, %.0f RPS per workload, %v measured\n\n", opt, *rps, *measure)
	report := func(name string, w meshlayer.WorkloadStats) {
		fmt.Fprintf(stdout, "%-20s n=%-6d errors=%-4d p50=%-10v p90=%-10v p99=%-10v mean=%v\n",
			name, w.Count, w.Errors, w.P50, w.P90, w.P99, w.Mean)
	}
	report("latency-sensitive", res.LS)
	report("latency-insensitive", res.LI)

	if cl := s.CrossLayer; cl != nil {
		st := cl.Stats()
		fmt.Fprintf(stdout, "\ncross-layer: provenance records=%d stamped=%d restored=%d qdiscs=%d\n",
			st.Recorded, st.Stamped, st.Restored, st.QdiscsInstalled)
	}
	if s.SDN != nil {
		fmt.Fprintf(stdout, "sdn: flows=%d steering-moves=%d\n", s.SDN.FlowCount(), s.SDN.Moves())
	}
	if *timeline {
		fmt.Fprintln(stdout, "\n--- latency-sensitive timeline ---")
		fmt.Fprint(stdout, lsTL.CSV())
		fmt.Fprintln(stdout, "\n--- latency-insensitive timeline ---")
		fmt.Fprint(stdout, liTL.CSV())
	}
	if *telemetry {
		fmt.Fprintln(stdout, "\n--- mesh telemetry ---")
		fmt.Fprintln(stdout, s.App.Mesh.Metrics().Dump())
	}
	return 0
}
