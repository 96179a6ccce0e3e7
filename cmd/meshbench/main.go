// Command meshbench reproduces every table and figure of the paper's
// evaluation (and this repo's extensions) and prints them as text
// tables. The experiments are the entries of meshlayer.Experiments;
// see DESIGN.md for the index.
//
// Usage:
//
//	meshbench -exp fig4                # the paper's Fig. 4 sweep
//	meshbench -exp all -measure 20s    # everything, paper-scale windows
//	meshbench -exp ablation -rps 40
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"meshlayer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: 0 on success,
// 2 with a one-line message on stderr for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	ids, explicit := meshlayer.IDs()
	p := meshlayer.DefaultParams()
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(ids, "|")+"|all ("+strings.Join(explicit, ", ")+" run only when named, never as part of all)")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed (same seed = identical run)")
	fs.Float64Var(&p.RPS, "rps", p.RPS, "per-workload RPS for the ablation experiment")
	levels := fs.String("levels", "10,20,30,40,50", "comma-separated RPS levels for the fig4 sweep")
	fs.DurationVar(&p.Warmup, "warmup", p.Warmup, "warm-up excluded from measurement")
	fs.DurationVar(&p.Measure, "measure", p.Measure, "measured window per run")
	opts := fs.String("opts", "routing,tc", "optimizations for the fig4 sweep: routing,tc,scavenger,sdn")
	fs.BoolVar(&p.Chart, "chart", false, "also render fig4 as an ASCII chart")
	fs.BoolVar(&p.CSV, "csv", false, "emit fig4 as CSV instead of a table")
	parallel := fs.Int("parallel", meshlayer.MaxParallel, "max concurrent simulation runs per sweep (1 = sequential; output is identical either way)")
	fs.IntVar(&p.Zones, "zones", 0, "E20 fan-in zone count, 100 pods each (0 = the full 100-zone, 10k-pod sweep)")
	fs.IntVar(&p.Subs, "subs", 0, "E21 subscriber (worker sidecar) count (0 = the full 10k fleet)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file` (read with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken after the run, to `file` (allocations: go tool pprof -sample_index=alloc_space)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "meshbench:", err)
		return 2
	}
	var err error
	if p.Levels, err = parseLevels(*levels); err != nil {
		return fail(err)
	}
	if p.Opt, err = meshlayer.ParseOptimizations(*opts); err != nil {
		return fail(err)
	}
	if *parallel < 1 {
		return fail(fmt.Errorf("parallel must be >= 1, got %d", *parallel))
	}
	meshlayer.MaxParallel = *parallel
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	err = meshlayer.RunExperiment(stdout, *exp, p)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// startProfiles opens both profile files before the run, so that a path
// that cannot be written fails in milliseconds and not after a
// ten-minute experiment, and starts the CPU profile. The returned stop
// ends the CPU profile and writes the heap profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			closeAll(cpu)
			return nil, err
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeAll(cpu, mem)
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
		}
		if mem != nil {
			runtime.GC() // the profile reports the heap as of the last collection
			err = pprof.WriteHeapProfile(mem)
		}
		return errors.Join(err, closeAll(cpu, mem))
	}, nil
}

func closeAll(files ...*os.File) error {
	var err error
	for _, f := range files {
		if f != nil {
			err = errors.Join(err, f.Close())
		}
	}
	return err
}

func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad RPS level %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no RPS levels")
	}
	return out, nil
}
