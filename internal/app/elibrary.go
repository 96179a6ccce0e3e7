package app

import (
	"errors"
	"fmt"
	"strings"
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

// ELibraryConfig parameterizes the §4.3 testbed.
type ELibraryConfig struct {
	// LinkRate is the default inter-pod rate (paper: 15 Gbps).
	LinkRate int64
	// BottleneckRate throttles the ratings pod's uplink — the single
	// 1 Gbps bottleneck between reviews and ratings.
	BottleneckRate int64
	// ReviewsReplicas is the reviews scale-out (paper: 2, one per
	// priority pool under the optimization). Ignored when Zones or
	// Regions > 1 (each zone gets one reviews replica).
	ReviewsReplicas int
	// Workers bounds per-pod compute concurrency.
	Workers int

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

	// Latency-sensitive response sizes per component.
	LSDetailsBytes, LSRatingsBytes, LSReviewsBytes, LSFrontendBytes int
	// Latency-insensitive response sizes: the ratings scan dominates.
	LIRatingsBytes, LIReviewsBytes, LIFrontendBytes int

	// Service times (compute) per component.
	FrontendTime, DetailsTime, ReviewsTime, RatingsTime time.Duration
	// RatingsScanTime is the extra compute of the analytics scan.
	RatingsScanTime time.Duration

	// Mesh carries mesh-level settings (sidecar overhead, seed).
	Mesh mesh.Config
}

// DefaultELibraryConfig mirrors the paper's setup, scaled to the
// simulator: LS responses total ~10 KB, LI ratings responses are 2 MB
// (~200x), and the ratings uplink is the 1 Gbps bottleneck.
func DefaultELibraryConfig() ELibraryConfig {
	return ELibraryConfig{
		LinkRate:        15 * simnet.Gbps,
		BottleneckRate:  1 * simnet.Gbps,
		ReviewsReplicas: 2,
		Workers:         32,
		LSDetailsBytes:  2 << 10,
		LSRatingsBytes:  1 << 10,
		LSReviewsBytes:  4 << 10,
		LSFrontendBytes: 8 << 10,
		LIRatingsBytes:  2 << 20,
		LIReviewsBytes:  32 << 10,
		LIFrontendBytes: 32 << 10,
		FrontendTime:    1 * time.Millisecond,
		DetailsTime:     500 * time.Microsecond,
		ReviewsTime:     1 * time.Millisecond,
		RatingsTime:     500 * time.Microsecond,
		RatingsScanTime: 3 * time.Millisecond,
	}
}

// ELibrary is the assembled application: cluster, mesh, gateway, and
// the pods by role.
type ELibrary struct {
	Sched   *simnet.Scheduler
	Net     *simnet.Network
	Cluster *cluster.Cluster
	Mesh    *mesh.Mesh
	Gateway *mesh.Gateway
	Config  ELibraryConfig

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

// resolve applies the testbed's one defaulting rule: a config that
// sets nothing but Mesh is DefaultELibraryConfig; any other config is
// taken whole. A partial one — fields set beside a zero LinkRate — is
// an error, because filling the gaps would build a testbed the caller
// did not describe.
func (cfg ELibraryConfig) resolve() (ELibraryConfig, error) {
	if cfg.LinkRate != 0 {
		return cfg, nil
	}
	meshCfg := cfg.Mesh
	cfg.Mesh = mesh.Config{}
	if cfg != (ELibraryConfig{}) {
		return cfg, errors.New("app: ELibraryConfig sets fields but no LinkRate; start from DefaultELibraryConfig() and override what differs")
	}
	cfg = DefaultELibraryConfig()
	cfg.Mesh = meshCfg
	return cfg, nil
}

// cell is one failure domain's replica set: a frontend, a details, a
// ratings behind the bottleneck, and one reviews pod per suffix listed.
type cell struct {
	zone, suffix string
	reviews      []string
}

// BuildELibrary constructs the Fig. 3 topology on a fresh scheduler:
// ingress gateway -> frontend -> {details, reviews[i] -> ratings}, with
// the ratings uplink as the bottleneck. The paper's testbed is one
// zone-less cell with ReviewsReplicas reviews pods; Zones > 1 places one
// cell per zone, each pod suffixed with the zone letter, so the
// aggregate is N copies of the testbed joined at the spine; Regions > 1
// places the same cells in every region's zones, joins the region
// spines by WAN links, and adds one east-west gateway pod per region on
// its spine behind the mesh.EWGatewayService(region) service. The
// ingress gateway lives in the first cell, so under a region-a
// evacuation the edge itself keeps running while its upstreams drain.
func BuildELibrary(cfg ELibraryConfig) *ELibrary {
	cfg, err := cfg.resolve()
	if err != nil {
		panic(err)
	}
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	e := &ELibrary{Sched: sched, Net: net, Cluster: cl, Config: cfg}

	link := simnet.LinkConfig{Rate: cfg.LinkRate, Delay: 20 * time.Microsecond}
	bottleneck := simnet.LinkConfig{Rate: cfg.BottleneckRate, Delay: 20 * time.Microsecond}

	var cells []cell
	zoneCell := func(zone, region string) {
		cl.AddZoneInRegion(zone, region, cluster.DefaultZoneUplink)
		e.Zones = append(e.Zones, zone)
		suffix := strings.TrimPrefix(zone, "zone-")
		cells = append(cells, cell{zone: zone, suffix: suffix, reviews: []string{suffix}})
	}
	switch {
	case cfg.Regions > 1:
		zonesPer := cfg.Zones
		if zonesPer <= 1 {
			zonesPer = 2
		}
		for i := 0; i < cfg.Regions; i++ {
			r := "region-" + string(rune('a'+i))
			cl.AddRegion(r, cluster.DefaultWANLink)
			e.Regions = append(e.Regions, r)
			for j := 1; j <= zonesPer; j++ {
				zoneCell(fmt.Sprintf("zone-%c%d", 'a'+i, j), r)
			}
		}
	case cfg.Zones > 1:
		for i := 0; i < cfg.Zones; i++ {
			zoneCell("zone-"+string(rune('a'+i)), "")
		}
	default:
		c := cell{suffix: "1"}
		for i := 1; i <= cfg.ReviewsReplicas; i++ {
			c.reviews = append(c.reviews, fmt.Sprint(i))
		}
		cells = []cell{c}
	}

	gwPod := cl.AddPod(cluster.PodSpec{
		Name: "gateway", Labels: map[string]string{"app": "gateway"}, Link: link, Zone: cells[0].zone})
	for i, c := range cells {
		pod := func(name string, l simnet.LinkConfig, labels map[string]string) *cluster.Pod {
			return cl.AddPod(cluster.PodSpec{Name: name, Labels: labels, Link: l, Workers: cfg.Workers, Zone: c.zone})
		}
		fe := pod("frontend-"+c.suffix, link, map[string]string{"app": "frontend"})
		dt := pod("details-"+c.suffix, link, map[string]string{"app": "details"})
		for _, s := range c.reviews {
			version := fmt.Sprintf("v%d", len(e.Reviews)+1)
			e.Reviews = append(e.Reviews, pod("reviews-"+s, link, map[string]string{"app": "reviews", "version": version}))
		}
		rt := pod("ratings-"+c.suffix, bottleneck, map[string]string{"app": "ratings"})
		e.AllRatings = append(e.AllRatings, rt)
		if i == 0 {
			e.Frontend, e.Details, e.Ratings = fe, dt, rt
		}
	}
	for _, svc := range []string{"frontend", "details", "reviews", "ratings"} {
		cl.AddService(svc, 9080, map[string]string{"app": svc})
	}
	// Federation infrastructure: one east-west gateway per region, each
	// behind its own single-pod service.
	for _, r := range e.Regions {
		name := mesh.EWGatewayService(r)
		e.EastWest = append(e.EastWest, cl.AddPod(cluster.PodSpec{
			Name: name, Labels: map[string]string{"app": name}, Link: link, Workers: cfg.Workers, Region: r}))
		cl.AddService(name, 9080, map[string]string{"app": name})
	}

	e.Mesh = mesh.New(cl, cfg.Mesh)
	e.Gateway = e.Mesh.NewGateway(gwPod)
	for _, p := range e.EastWest {
		e.Mesh.NewEastWestGateway(p)
	}
	// Application sidecars, in pod creation order.
	for _, p := range cl.Pods() {
		switch p.Label("app") {
		case "frontend":
			e.registerFrontend(p)
		case "details":
			e.registerDetails(p)
		case "reviews":
			e.registerReviews(p)
		case "ratings":
			e.registerRatings(p)
		}
	}
	return e
}

// isAnalytics classifies a path as the batch workload.
func isAnalytics(path string) bool { return strings.HasPrefix(path, PathAnalytics) }

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

func (e *ELibrary) registerFrontend(pod *cluster.Pod) {
	sc := e.Mesh.InjectSidecar(pod)
	cfg := e.Config
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(cfg.FrontendTime, func() {
			if isAnalytics(req.Path) {
				// Batch analytics: scan reviews (which consults
				// ratings) and return an aggregate.
				child := childRequest(req, "reviews", req.Path)
				// The ingress-adjacent application attaches the
				// priority bits to the requests it spawns (§4.3 (1)).
				if p := req.Headers.Get(mesh.HeaderPriority); p != "" {
					child.Headers.Set(mesh.HeaderPriority, p)
				}
				sc.Call(child, func(resp *httpsim.Response, err error) {
					if err != nil {
						respond(httpsim.NewResponse(httpsim.StatusBadGateway))
						return
					}
					out := httpsim.NewResponse(httpsim.StatusOK)
					out.BodyBytes = cfg.LIFrontendBytes
					respond(out)
				})
				return
			}
			// Product page: details and reviews in parallel.
			pendingOK := true
			remaining := 2
			finish := func(ok bool) {
				if !ok {
					pendingOK = false
				}
				remaining--
				if remaining > 0 {
					return
				}
				status := httpsim.StatusOK
				if !pendingOK {
					status = httpsim.StatusBadGateway
				}
				out := httpsim.NewResponse(status)
				out.BodyBytes = cfg.LSFrontendBytes
				respond(out)
			}
			details := childRequest(req, "details", req.Path)
			reviews := childRequest(req, "reviews", req.Path)
			for _, child := range []*httpsim.Request{details, reviews} {
				if p := req.Headers.Get(mesh.HeaderPriority); p != "" {
					child.Headers.Set(mesh.HeaderPriority, p)
				}
			}
			sc.Call(details, func(resp *httpsim.Response, err error) { finish(err == nil && resp.Status < 500) })
			sc.Call(reviews, func(resp *httpsim.Response, err error) { finish(err == nil && resp.Status < 500) })
		})
	})
}

func (e *ELibrary) registerDetails(pod *cluster.Pod) {
	sc := e.Mesh.InjectSidecar(pod)
	cfg := e.Config
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(cfg.DetailsTime, func() {
			out := httpsim.NewResponse(httpsim.StatusOK)
			out.BodyBytes = cfg.LSDetailsBytes
			respond(out)
		})
	})
}

func (e *ELibrary) registerReviews(pod *cluster.Pod) {
	sc := e.Mesh.InjectSidecar(pod)
	cfg := e.Config
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(cfg.ReviewsTime, func() {
			// NOTE: reviews does NOT copy the priority header — beyond
			// the ingress-adjacent hop, priority propagation is the
			// sidecar layer's provenance mechanism (§4.3 (2)).
			child := childRequest(req, "ratings", req.Path)
			sc.Call(child, func(resp *httpsim.Response, err error) {
				if err != nil {
					respond(httpsim.NewResponse(httpsim.StatusBadGateway))
					return
				}
				out := httpsim.NewResponse(httpsim.StatusOK)
				if isAnalytics(req.Path) {
					out.BodyBytes = cfg.LIReviewsBytes
				} else {
					out.BodyBytes = cfg.LSReviewsBytes
				}
				respond(out)
			})
		})
	})
}

func (e *ELibrary) registerRatings(pod *cluster.Pod) {
	sc := e.Mesh.InjectSidecar(pod)
	cfg := e.Config
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		t := cfg.RatingsTime
		if isAnalytics(req.Path) {
			t += cfg.RatingsScanTime
		}
		pod.Exec(t, func() {
			out := httpsim.NewResponse(httpsim.StatusOK)
			if isAnalytics(req.Path) {
				out.BodyBytes = cfg.LIRatingsBytes
			} else {
				out.BodyBytes = cfg.LSRatingsBytes
			}
			respond(out)
		})
	})
}
