package app

import (
	"math/rand"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// ECommerce is a deeper microservice tree used by the examples and the
// redundancy/hedging study:
//
//	gateway -> storefront -> catalog (2 replicas)
//	                      -> recs (2 replicas, high-variance latency) -> db
//	                      -> cart -> db
type ECommerce struct {
	Sched   *simnet.Scheduler
	Cluster *cluster.Cluster
	Mesh    *mesh.Mesh
	Gateway *mesh.Gateway
}

// ECommerceConfig parameterizes BuildECommerce.
type ECommerceConfig struct {
	// RecsSlowTime is the slow-path service time.
	RecsSlowTime time.Duration
	// Seed drives the app's service-time randomness.
	Seed int64
}

// recsSlowProb is the probability a recs call hits its slow path (GC
// pause / cache miss), making tail latency hedging-worthy.
const recsSlowProb = 0.05

// BuildECommerce constructs the tree on a fresh scheduler.
func BuildECommerce(cfg ECommerceConfig) *ECommerce {
	if cfg.RecsSlowTime == 0 {
		cfg.RecsSlowTime = 100 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)

	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	sfPod := cl.AddPod(cluster.PodSpec{Name: "storefront-1", Labels: map[string]string{"app": "storefront"}})
	cat1 := cl.AddPod(cluster.PodSpec{Name: "catalog-1", Labels: map[string]string{"app": "catalog"}})
	cat2 := cl.AddPod(cluster.PodSpec{Name: "catalog-2", Labels: map[string]string{"app": "catalog"}})
	rec1 := cl.AddPod(cluster.PodSpec{Name: "recs-1", Labels: map[string]string{"app": "recs"}})
	rec2 := cl.AddPod(cluster.PodSpec{Name: "recs-2", Labels: map[string]string{"app": "recs"}})
	cartPod := cl.AddPod(cluster.PodSpec{Name: "cart-1", Labels: map[string]string{"app": "cart"}})
	dbPod := cl.AddPod(cluster.PodSpec{Name: "db-1", Labels: map[string]string{"app": "db"}})

	cl.AddService("storefront", 9080, map[string]string{"app": "storefront"})
	cl.AddService("catalog", 9080, map[string]string{"app": "catalog"})
	cl.AddService("recs", 9080, map[string]string{"app": "recs"})
	cl.AddService("cart", 9080, map[string]string{"app": "cart"})
	cl.AddService("db", 9080, map[string]string{"app": "db"})

	m := mesh.New(cl, mesh.Config{})
	gw := m.NewGateway(gwPod)

	leaf := func(pod *cluster.Pod, svcTime time.Duration, bytes int) {
		sc := m.InjectSidecar(pod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			pod.Exec(svcTime, func() {
				out := httpsim.NewResponse(httpsim.StatusOK)
				out.BodyBytes = bytes
				respond(out)
			})
		})
	}
	leaf(cat1, 500*time.Microsecond, 4<<10)
	leaf(cat2, 500*time.Microsecond, 4<<10)
	leaf(dbPod, 300*time.Microsecond, 1<<10)

	// recs: calls db, occasionally hits a slow path.
	for _, pod := range []*cluster.Pod{rec1, rec2} {
		pod := pod
		sc := m.InjectSidecar(pod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			t := time.Millisecond
			if rng.Float64() < recsSlowProb {
				t = cfg.RecsSlowTime
			}
			pod.Exec(t, func() {
				child := childRequest(req, "db", "/recs-features")
				sc.Call(child, func(resp *httpsim.Response, err error) {
					out := httpsim.NewResponse(httpsim.StatusOK)
					out.BodyBytes = 8 << 10
					respond(out)
				})
			})
		})
	}

	// cart: calls db.
	{
		sc := m.InjectSidecar(cartPod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			cartPod.Exec(400*time.Microsecond, func() {
				child := childRequest(req, "db", "/cart-items")
				sc.Call(child, func(resp *httpsim.Response, err error) {
					out := httpsim.NewResponse(httpsim.StatusOK)
					out.BodyBytes = 2 << 10
					respond(out)
				})
			})
		})
	}

	// storefront: fans out to catalog, recs, cart.
	{
		sc := m.InjectSidecar(sfPod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			sfPod.Exec(800*time.Microsecond, func() {
				remaining := 3
				worst := httpsim.StatusOK
				finish := func(resp *httpsim.Response, err error) {
					if err != nil {
						worst = httpsim.StatusBadGateway
					} else if resp.Status > worst {
						worst = resp.Status
					}
					remaining--
					if remaining > 0 {
						return
					}
					out := httpsim.NewResponse(worst)
					out.BodyBytes = 16 << 10
					respond(out)
				}
				for _, svc := range []string{"catalog", "recs", "cart"} {
					sc.Call(childRequest(req, svc, "/"+svc), finish)
				}
			})
		})
	}

	return &ECommerce{Sched: sched, Cluster: cl, Mesh: m, Gateway: gw}
}

// NewStorefrontRequest builds an external storefront page request.
func NewStorefrontRequest() *httpsim.Request {
	r := httpsim.NewRequest("GET", "/store")
	r.Headers.Set(mesh.HeaderHost, "storefront")
	return r
}
