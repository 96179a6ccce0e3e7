package app

import (
	"math/rand"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
)

// ECommerceSpec is a deeper microservice tree used by the examples and
// the redundancy/hedging study:
//
//	gateway -> storefront -> catalog (2 replicas)
//	                      -> recs (2 replicas, high-variance latency) -> db
//	                      -> cart -> db
//
// recs takes 1 ms, except that 5 % of its requests hit a slow path (GC
// pause / cache miss) of recsSlow, which makes its tail hedging-worthy.
// seed drives that draw.
func ECommerceSpec(seed int64, recsSlow time.Duration) DAGSpec {
	rng := rand.New(rand.NewSource(seed + 1))
	return DAGSpec{
		Entry: "storefront",
		Services: []ServiceSpec{
			{Name: "storefront", ServiceTime: 800 * time.Microsecond, ResponseBytes: 16 << 10,
				Calls: []Call{{"catalog", "/catalog"}, {"recs", "/recs"}, {"cart", "/cart"}}},
			{Name: "catalog", Replicas: 2, ServiceTime: 500 * time.Microsecond, ResponseBytes: 4 << 10},
			{Name: "recs", Replicas: 2, ServiceTime: time.Millisecond, ResponseBytes: 8 << 10,
				Calls: []Call{{"db", "/recs-features"}},
				Tail: func() time.Duration {
					if rng.Float64() < 0.05 {
						return recsSlow - time.Millisecond
					}
					return 0
				}},
			{Name: "cart", ServiceTime: 400 * time.Microsecond, ResponseBytes: 2 << 10,
				Calls: []Call{{"db", "/cart-items"}}},
			{Name: "db", ServiceTime: 300 * time.Microsecond, ResponseBytes: 1 << 10},
		},
	}
}

// NewStorefrontRequest builds an external storefront page request.
func NewStorefrontRequest() *httpsim.Request {
	r := httpsim.NewRequest("GET", "/store")
	r.Headers.Set(mesh.HeaderHost, "storefront")
	return r
}
