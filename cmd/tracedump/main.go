// Command tracedump serves a few requests through the e-library and
// prints the reconstructed distributed call trees — the visibility
// story of §3.2, and the provenance the prioritization builds on.
//
// Usage:
//
//	tracedump -n 2 -opts routing,tc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"meshlayer"
	"meshlayer/internal/app"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: 0 on success,
// 2 with a one-line message on stderr for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n    = fs.Int("n", 2, "requests of each class to trace")
		opts = fs.String("opts", "routing,tc", "optimizations: routing,tc,scavenger,sdn (empty = baseline)")
		seed = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt, err := meshlayer.ParseOptimizations(*opts)
	if err == nil && *n <= 0 {
		err = fmt.Errorf("n must be > 0, got %d", *n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracedump:", err)
		return 2
	}

	s := meshlayer.NewScenario(meshlayer.ScenarioConfig{Opt: opt, Seed: *seed})
	e := s.App
	for i := 0; i < *n; i++ {
		e.Gateway.Serve(app.NewProductRequest(), func(*httpsim.Response, error) {})
		e.Gateway.Serve(app.NewAnalyticsRequest(), func(*httpsim.Response, error) {})
		e.Sched.RunFor(500 * time.Millisecond)
	}
	e.Sched.Run()

	tracer := e.Mesh.Tracer()
	for _, id := range tracer.TraceIDs() {
		tree := tracer.Tree(id)
		if tree == nil {
			continue
		}
		fmt.Fprintf(stdout, "trace %s (priority=%s, total=%v)\n", id, tree.Span.Priority, tree.Span.Duration())
		fmt.Fprint(stdout, tree.Format())
		fmt.Fprint(stdout, trace.FormatCriticalPath(trace.CriticalPath(tree)))
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "slowest traces:", tracer.SlowestTraces(3))
	fmt.Fprintln(stdout, "\nper-service totals:")
	totals := tracer.ServiceTotals()
	names := make([]string, 0, len(totals))
	for svc := range totals {
		names = append(names, svc)
	}
	sort.Strings(names)
	for _, svc := range names {
		fmt.Fprintf(stdout, "  %-18s spans=%-4d busy=%v\n", svc, totals[svc].Spans, totals[svc].TotalTime)
	}
	return 0
}
