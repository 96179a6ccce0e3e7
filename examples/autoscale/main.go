// Autoscaling demo: a load surge hits a one-replica service; the
// HPA-style controller scales it out and the latency timeline shows the
// tail recovering. (An orchestration-layer capability the mesh's
// telemetry makes possible.)
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/autoscale"
	"meshlayer/internal/workload"
)

func main() {
	d, err := app.BuildDAG(app.DAGSpec{
		Entry: "api",
		Services: []app.ServiceSpec{{
			Name: "api", Replicas: 1, Workers: 4,
			ServiceTime: 20 * time.Millisecond, ResponseBytes: 4 << 10,
		}},
	})
	if err != nil {
		panic(err)
	}

	ctrl := autoscale.New(autoscale.Config{
		Cluster:  d.Cluster,
		Scaler:   d,
		Targets:  []autoscale.Target{{Service: "api", Min: 1, Max: 8, Utilization: 0.6}},
		Interval: 2 * time.Second,
	})
	ctrl.Start()

	tl := workload.NewTimeline(0, 2*time.Second)
	workload.Start(d.Sched, d.Gateway, workload.Spec{
		Name: "surge", Rate: 500, Seed: 9,
		NewRequest: d.NewDAGRequest,
		Warmup:     time.Second, Measure: 28 * time.Second, Cooldown: time.Second,
		OnComplete: tl.Observe,
	})

	fmt.Println("500 RPS against one replica (capacity ~200 RPS); autoscaler target 60% utilization")
	fmt.Println("\n  t      replicas  p50        p99        errors")
	for step := 0; step < 15; step++ {
		d.Sched.RunFor(2 * time.Second)
		pts := tl.Points()
		var last workload.Point
		if len(pts) > 0 {
			last = pts[len(pts)-1]
		}
		fmt.Printf("  %-6v %-9d %-10v %-10v %d\n",
			d.Sched.Now().Truncate(time.Second), d.ReadyReplicas("api"), last.P50, last.P99, last.Errors)
	}
	fmt.Printf("\nscale-ups: %d, final replicas: %d\n", ctrl.ScaleUps(), d.ReadyReplicas("api"))
}
