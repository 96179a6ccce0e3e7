// Chaos / resilience tour (advanced example, using the internal mesh
// API directly): fault injection, circuit breaking, request hedging,
// rate limiting, and traffic mirroring on the e-commerce app.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/workload"
)

func main() {
	fmt.Println("e-commerce app: storefront -> {catalog, recs -> db, cart -> db}")

	// --- 1. Baseline ---
	fmt.Println("\n[1] baseline")
	run(nil)

	// --- 2. Fault injection: 10% aborts on catalog ---
	fmt.Println("\n[2] inject 10% aborts into catalog calls (retries mask most)")
	run(func(cp *mesh.ControlPlane) {
		cp.SetFaultPolicy("catalog", mesh.FaultPolicy{AbortProb: 0.1, AbortStatus: httpsim.StatusInternalServerError})
	})

	// --- 3. Injected delay + hedging ---
	fmt.Println("\n[3] inject 50ms delay into 10% of recs calls, then hedge after 10ms")
	run(func(cp *mesh.ControlPlane) {
		cp.SetFaultPolicy("recs", mesh.FaultPolicy{DelayProb: 0.1, Delay: 50 * time.Millisecond})
		cp.SetHedgePolicy("recs", mesh.HedgePolicy{Delay: 10 * time.Millisecond})
	})

	// --- 4. Rate limiting the db ---
	fmt.Println("\n[4] rate-limit db to 30 RPS (callers absorb the 429s; telemetry shows them)")
	{
		ec := build()
		ec.Mesh.ControlPlane().SetRateLimit("db", mesh.RateLimitPolicy{RPS: 30, Burst: 5})
		r := drive(ec)
		limited := ec.Mesh.Metrics().Counter(mesh.MetricRequestsTotal,
			map[string]string{"service": "db", "direction": "inbound", "code": "429"}).Value()
		fmt.Printf("    measured=%d p99=%v, db rejections (429): %d\n", r.Measured, r.P99(), limited)
	}

	// --- 5. Mirroring ---
	fmt.Println("\n[5] mirror 50% of catalog traffic to a shadow deployment")
	ec := build()
	shadow := ec.Cluster.AddPod(cluster.PodSpec{Name: "catalog-shadow", Labels: map[string]string{"app": "catalog-shadow"}})
	ec.Cluster.AddService("catalog-shadow", 9080, map[string]string{"app": "catalog-shadow"})
	seen := 0
	sc := ec.Mesh.InjectSidecar(shadow)
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		seen++
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	ec.Mesh.ControlPlane().SetMirrorPolicy("catalog", mesh.MirrorPolicy{To: "catalog-shadow", Fraction: 0.5})
	res := drive(ec)
	fmt.Printf("    primary: %v p99, shadow copies served: %d\n", res.P99(), seen)
}

// run builds a fresh app, applies the policy tweak, and reports.
func run(mutate func(*mesh.ControlPlane)) {
	ec := build()
	if mutate != nil {
		mutate(ec.Mesh.ControlPlane())
	}
	r := drive(ec)
	fmt.Printf("    measured=%d errors=%d p50=%v p99=%v\n", r.Measured, r.Errors, r.P50(), r.P99())
}

// build assembles the e-commerce app with a 100 ms recs slow path.
func build() *app.DAG {
	ec, err := app.BuildDAG(app.ECommerceSpec(42, 100*time.Millisecond))
	if err != nil {
		panic(err)
	}
	return ec
}

func drive(ec *app.DAG) *workload.Results {
	g := workload.Start(ec.Sched, ec.Gateway, workload.Spec{
		Name: "store", Rate: 40, Seed: 11,
		NewRequest: app.NewStorefrontRequest,
		Warmup:     time.Second, Measure: 10 * time.Second, Cooldown: time.Second,
	})
	ec.Sched.RunFor(13 * time.Second)
	return g.Results()
}
