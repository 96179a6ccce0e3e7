// Command tracedump serves a few requests through the e-library and
// prints the reconstructed distributed call trees — the visibility
// story of §3.2, and the provenance the prioritization builds on.
//
// Usage:
//
//	tracedump -n 2 -opts routing,tc
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"meshlayer"
	"meshlayer/internal/app"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/trace"
)

func main() {
	var (
		n    = flag.Int("n", 2, "requests of each class to trace")
		opts = flag.String("opts", "routing,tc", "optimizations: routing,tc,scavenger,sdn (empty = baseline)")
		seed = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	opt, err := meshlayer.ParseOptimizations(*opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(2)
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
		fmt.Printf("trace %s (priority=%s, total=%v)\n", id, tree.Span.Priority, tree.Span.Duration())
		fmt.Print(tree.Format())
		fmt.Print(trace.FormatCriticalPath(trace.CriticalPath(tree)))
		fmt.Println()
	}

	fmt.Println("slowest traces:", tracer.SlowestTraces(3))
	fmt.Println("\nper-service totals:")
	totals := tracer.ServiceTotals()
	names := make([]string, 0, len(totals))
	for svc := range totals {
		names = append(names, svc)
	}
	sort.Strings(names)
	for _, svc := range names {
		fmt.Printf("  %-18s spans=%-4d busy=%v\n", svc, totals[svc].Spans, totals[svc].TotalTime)
	}
}
