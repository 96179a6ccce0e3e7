package app

import (
	"fmt"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
)

// ChainConfig parameterizes BuildChain.
type ChainConfig struct {
	// Depth is the number of chained services (>= 1).
	Depth int
	// ResponseBytes is each hop's response size.
	ResponseBytes int
	// Mesh carries mesh-level settings.
	Mesh mesh.Config
}

// BuildChain constructs a linear microservice pipeline svc-0 -> svc-1
// -> ... -> svc-(n-1) on a fresh scheduler: the topology for studying
// how per-hop sidecar overhead accumulates in "latency-sensitive apps
// involving tens of hops among microservices" (§3.6). External requests
// enter at the gateway addressed to "svc-0"; each service computes for
// 200 µs and calls the next; the last one answers.
func BuildChain(cfg ChainConfig) *DAG {
	if cfg.Depth < 1 {
		panic("app: chain depth must be >= 1")
	}
	if cfg.ResponseBytes == 0 {
		cfg.ResponseBytes = 2 << 10
	}
	spec := DAGSpec{Entry: "svc-0", Mesh: cfg.Mesh, Services: make([]ServiceSpec, cfg.Depth)}
	for i := range spec.Services {
		spec.Services[i] = ServiceSpec{
			Name:          fmt.Sprintf("svc-%d", i),
			ServiceTime:   200 * time.Microsecond,
			ResponseBytes: cfg.ResponseBytes,
		}
		if i+1 < cfg.Depth {
			spec.Services[i].Calls = calls(fmt.Sprintf("svc-%d", i+1))
		}
	}
	d, err := BuildDAG(spec)
	if err != nil {
		panic(err)
	}
	return d
}

// NewChainRequest builds an external request entering the chain.
func NewChainRequest() *httpsim.Request {
	r := httpsim.NewRequest("GET", "/chain")
	r.Headers.Set(mesh.HeaderHost, "svc-0")
	return r
}
