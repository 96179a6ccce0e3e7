package app

import (
	"fmt"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// Paths served by the e-library.
const (
	// PathProduct is the latency-sensitive user-facing page (the
	// bookinfo /productpage analogue).
	PathProduct = "/productpage"
	// PathAnalytics is the latency-insensitive batch scan whose
	// responses are ~200x larger.
	PathAnalytics = "/analytics"
)

// ELibraryConfig parameterizes the §4.3 testbed with what experiments
// vary; the rest of the paper's setup is the spec eLibrarySpec writes.
type ELibraryConfig struct {
	// BottleneckRate throttles the ratings pod's uplink — the single
	// bottleneck between reviews and ratings. Zero selects the paper's
	// 1 Gbps.
	BottleneckRate int64
	// LIRatingsBytes is the latency-insensitive ratings scan's response
	// size, which dominates that class. Zero selects 2 MB, ~200x the
	// latency-sensitive page.
	LIRatingsBytes int

	// Zones spreads the testbed across this many failure domains
	// ("zone-a", "zone-b", ...), one replica of every tier per zone,
	// each zone behind its own bridge and spine uplink. <= 1 keeps the
	// original single-zone topology byte-identical to before zones
	// existed. The gateway lives in zone-a.
	Zones int

	// Regions replicates the zoned testbed across this many regions
	// ("region-a", ...), each with Zones failure domains (default 2)
	// carrying a full replica set, joined by WAN links between region
	// spines. Every region gets an east-west gateway pod on its spine;
	// the ingress gateway lives in region-a's first zone. <= 1 keeps
	// the pre-federation topologies byte-identical.
	Regions int

	// Mesh carries mesh-level settings (sidecar overhead, seed).
	Mesh mesh.Config
}

// The latency-sensitive response sizes experiments quote; LS responses
// total ~10 KB.
const (
	LSReviewsBytes  = 4 << 10
	LSFrontendBytes = 8 << 10
)

// DefaultELibraryConfig is the paper's testbed, and what the zero config
// builds: one zone, a 1 Gbps ratings uplink, 2 MB LI ratings responses.
func DefaultELibraryConfig() ELibraryConfig {
	return ELibraryConfig{BottleneckRate: 1 * simnet.Gbps, LIRatingsBytes: 2 << 20}
}

// ELibrary is the assembled application: cluster, mesh, gateway, and
// the pods by role.
type ELibrary struct {
	Sched   *simnet.Scheduler
	Net     *simnet.Network
	Cluster *cluster.Cluster
	Mesh    *mesh.Mesh
	Gateway *mesh.Gateway
	Config  ELibraryConfig // as built: zero fields resolved

	// Per-role pods. In single-zone mode these are the Fig. 3 pods; in
	// multi-zone mode Frontend/Details/Ratings are the zone-a replicas
	// and the *All slices hold one pod per zone in zone order.
	Frontend *cluster.Pod
	Details  *cluster.Pod
	Reviews  []*cluster.Pod
	Ratings  *cluster.Pod

	// Zones lists the zone names in creation order (nil when
	// single-zone); AllRatings holds every ratings replica.
	Zones      []string
	AllRatings []*cluster.Pod

	// Regions lists the region names in creation order and EastWest the
	// per-region east-west gateway pods (nil when single-region).
	Regions  []string
	EastWest []*cluster.Pod
}

// eLibrarySpec declares the Fig. 3 application: frontend -> {details,
// reviews -> ratings}, with the ratings uplink as the bottleneck and
// /analytics as the scan every tier serves bigger. The paper's testbed
// is zone-less with two reviews replicas (one per priority pool under
// the optimization); Zones > 1 gives every service one replica per
// zone, and Regions > 1 puts those zones in every region.
func eLibrarySpec(cfg ELibraryConfig) DAGSpec {
	// The scan answers 200 over any reply from the tier below it; only a
	// transport error fails it.
	scan := func(t time.Duration, bytes int, next ...string) []PathSpec {
		return []PathSpec{{Prefix: PathAnalytics, ServiceTime: t, ResponseBytes: bytes, Calls: calls(next...), Masks: true}}
	}
	spec := DAGSpec{Entry: "frontend", Mesh: cfg.Mesh}
	switch {
	case cfg.Regions > 1:
		for i := 0; i < cfg.Regions; i++ {
			for j := 1; j <= max(cfg.Zones, 2); j++ {
				spec.Zones = append(spec.Zones, Zone{fmt.Sprintf("zone-%c%d", 'a'+i, j), fmt.Sprintf("region-%c", 'a'+i)})
			}
		}
	case cfg.Zones > 1:
		for i := 0; i < cfg.Zones; i++ {
			spec.Zones = append(spec.Zones, Zone{Name: fmt.Sprintf("zone-%c", 'a'+i)})
		}
	}
	reviews := 2
	if spec.Zones != nil {
		reviews = 1
	}
	// Response sizes and service times per tier; the ratings scan
	// computes 3 ms more than the page's lookup.
	spec.Services = []ServiceSpec{
		{Name: "frontend", Workers: 32, ServiceTime: time.Millisecond, ResponseBytes: LSFrontendBytes,
			Calls: calls("details", "reviews"), Paths: scan(time.Millisecond, 32<<10, "reviews")},
		{Name: "details", Workers: 32, ServiceTime: 500 * time.Microsecond, ResponseBytes: 2 << 10},
		// Reviews' page, too, answers over any reply from ratings.
		{Name: "reviews", Replicas: reviews, Workers: 32, ServiceTime: time.Millisecond, ResponseBytes: LSReviewsBytes,
			Calls: calls("ratings"), Paths: scan(time.Millisecond, 32<<10, "ratings"), Masks: true},
		{Name: "ratings", Workers: 32, ServiceTime: 500 * time.Microsecond, ResponseBytes: 1 << 10,
			Paths: scan(3500*time.Microsecond, cfg.LIRatingsBytes), UplinkRate: cfg.BottleneckRate},
	}
	return spec
}

// BuildELibrary constructs the Fig. 3 topology on a fresh scheduler:
// ingress gateway -> frontend -> {details, reviews[i] -> ratings}, as
// BuildDAG assembles eLibrarySpec(cfg). Under zones a pod is suffixed
// with its zone's letter, so the aggregate is N copies of the testbed
// joined at the spine; under regions one east-west gateway pod per
// region sits on its spine behind mesh.EWGatewayService(region). The
// ingress gateway lives in the first zone, so under a region-a
// evacuation the edge itself keeps running while its upstreams drain.
func BuildELibrary(cfg ELibraryConfig) *ELibrary {
	def := DefaultELibraryConfig()
	if cfg.BottleneckRate == 0 {
		cfg.BottleneckRate = def.BottleneckRate
	}
	if cfg.LIRatingsBytes == 0 {
		cfg.LIRatingsBytes = def.LIRatingsBytes
	}
	d, err := BuildDAG(eLibrarySpec(cfg))
	if err != nil {
		panic(err)
	}
	cl := d.Cluster
	pods := func(service string) []*cluster.Pod {
		return append([]*cluster.Pod(nil), cl.Service(service).Endpoints()...)
	}
	e := &ELibrary{Sched: d.Sched, Net: d.Net, Cluster: cl, Mesh: d.Mesh, Gateway: d.Gateway, Config: cfg,
		Frontend: pods("frontend")[0], Details: pods("details")[0], Reviews: pods("reviews"),
		Zones: cl.Zones(), AllRatings: pods("ratings"), Regions: cl.Regions()}
	e.Ratings = e.AllRatings[0]
	for _, r := range e.Regions {
		e.EastWest = append(e.EastWest, cl.Pod(mesh.EWGatewayService(r)))
	}
	return e
}

// NewProductRequest builds a latency-sensitive external request.
func NewProductRequest() *httpsim.Request {
	r := httpsim.NewRequest("GET", PathProduct)
	r.Headers.Set(mesh.HeaderHost, "frontend")
	r.BodyBytes = 128
	return r
}

// NewAnalyticsRequest builds a latency-insensitive external request.
func NewAnalyticsRequest() *httpsim.Request {
	r := httpsim.NewRequest("GET", PathAnalytics)
	r.Headers.Set(mesh.HeaderHost, "frontend")
	r.BodyBytes = 256
	return r
}

// Classifier returns the ingress classifier for the e-library: user
// paths are high priority, analytics paths low — design component (1).
func Classifier() mesh.Classifier {
	return mesh.PathClassifier(map[string]string{
		PathProduct:   mesh.PriorityHigh,
		PathAnalytics: mesh.PriorityLow,
	}, mesh.PriorityHigh)
}
