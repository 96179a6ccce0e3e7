package app

import (
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

// ELibraryConfig parameterizes the §4.3 testbed with what experiments
// vary; the rest of the paper's setup is the constants below.
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

// The paper's setup, scaled to the simulator: LS responses total ~10 KB.
const (
	// LinkRate is the inter-pod rate (paper: 15 Gbps).
	LinkRate = 15 * simnet.Gbps
	// reviewsReplicas is the single-zone reviews scale-out (paper: 2, one
	// per priority pool under the optimization); a zone gets one.
	reviewsReplicas = 2
	// podWorkers bounds per-pod compute concurrency.
	podWorkers = 32

	// Latency-sensitive response sizes per component.
	lsDetailsBytes  = 2 << 10
	lsRatingsBytes  = 1 << 10
	LSReviewsBytes  = 4 << 10
	LSFrontendBytes = 8 << 10
	// Latency-insensitive response sizes above the ratings scan.
	liReviewsBytes  = 32 << 10
	liFrontendBytes = 32 << 10

	// Service times (compute) per component; ratingsScanTime is the extra
	// compute of the analytics scan.
	frontendTime    = 1 * time.Millisecond
	detailsTime     = 500 * time.Microsecond
	reviewsTime     = 1 * time.Millisecond
	ratingsTime     = 500 * time.Microsecond
	ratingsScanTime = 3 * time.Millisecond
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

// cell is one failure domain's replica set: a frontend, a details, a
// ratings behind the bottleneck, and one reviews pod per suffix listed.
type cell struct {
	zone, suffix string
	reviews      []string
}

// BuildELibrary constructs the Fig. 3 topology on a fresh scheduler:
// ingress gateway -> frontend -> {details, reviews[i] -> ratings}, with
// the ratings uplink as the bottleneck. The paper's testbed is one
// zone-less cell with reviewsReplicas reviews pods; Zones > 1 places one
// cell per zone, each pod suffixed with the zone letter, so the
// aggregate is N copies of the testbed joined at the spine; Regions > 1
// places the same cells in every region's zones, joins the region
// spines by WAN links, and adds one east-west gateway pod per region on
// its spine behind the mesh.EWGatewayService(region) service. The
// ingress gateway lives in the first cell, so under a region-a
// evacuation the edge itself keeps running while its upstreams drain.
func BuildELibrary(cfg ELibraryConfig) *ELibrary {
	def := DefaultELibraryConfig()
	if cfg.BottleneckRate == 0 {
		cfg.BottleneckRate = def.BottleneckRate
	}
	if cfg.LIRatingsBytes == 0 {
		cfg.LIRatingsBytes = def.LIRatingsBytes
	}
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	e := &ELibrary{Sched: sched, Net: net, Cluster: cl, Config: cfg}

	link := simnet.LinkConfig{Rate: LinkRate, Delay: 20 * time.Microsecond}
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
		for i := 1; i <= reviewsReplicas; i++ {
			c.reviews = append(c.reviews, fmt.Sprint(i))
		}
		cells = []cell{c}
	}

	gwPod := cl.AddPod(cluster.PodSpec{
		Name: "gateway", Labels: map[string]string{"app": "gateway"}, Link: link, Zone: cells[0].zone})
	for i, c := range cells {
		pod := func(name string, l simnet.LinkConfig, labels map[string]string) *cluster.Pod {
			return cl.AddPod(cluster.PodSpec{Name: name, Labels: labels, Link: l, Workers: podWorkers, Zone: c.zone})
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
			Name: name, Labels: map[string]string{"app": name}, Link: link, Workers: podWorkers, Region: r}))
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
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(frontendTime, func() {
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
					out.BodyBytes = liFrontendBytes
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
				out.BodyBytes = LSFrontendBytes
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
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(detailsTime, func() {
			out := httpsim.NewResponse(httpsim.StatusOK)
			out.BodyBytes = lsDetailsBytes
			respond(out)
		})
	})
}

func (e *ELibrary) registerReviews(pod *cluster.Pod) {
	sc := e.Mesh.InjectSidecar(pod)
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(reviewsTime, func() {
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
					out.BodyBytes = liReviewsBytes
				} else {
					out.BodyBytes = LSReviewsBytes
				}
				respond(out)
			})
		})
	})
}

func (e *ELibrary) registerRatings(pod *cluster.Pod) {
	sc := e.Mesh.InjectSidecar(pod)
	liBytes := e.Config.LIRatingsBytes
	sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		t := ratingsTime
		if isAnalytics(req.Path) {
			t += ratingsScanTime
		}
		pod.Exec(t, func() {
			out := httpsim.NewResponse(httpsim.StatusOK)
			if isAnalytics(req.Path) {
				out.BodyBytes = liBytes
			} else {
				out.BodyBytes = lsRatingsBytes
			}
			respond(out)
		})
	})
}
