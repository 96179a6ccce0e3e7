// Package app contains the sample microservice applications that run on
// the mesh. BuildDAG assembles each from a declared service graph
// (DAGSpec), and one handler serves every service of every graph: the
// e-library of the paper's prototype (Istio's bookinfo reshaped, §4.3),
// a linear chain for hop-depth studies, a deeper e-commerce tree, and a
// social network.
//
// The handler follows the paper's division of labour: it propagates the
// trace headers (x-request-id / x-span-id) onto child requests — "which
// is propagated to those requests by the application to enable existing
// service mesh functionality" — and the entry service copies the
// priority header onto the requests it spawns, while priority
// propagation beyond it is the mesh's job (internal/core).
package app

import (
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/trace"
)

// CopyTrace copies the distributed-tracing context headers from an
// inbound request onto a child request, as the application must for
// the mesh's tracing (and thus provenance) to work.
func CopyTrace(parent, child *httpsim.Request) {
	if v := parent.Headers.Get(trace.HeaderRequestID); v != "" {
		child.Headers.Set(trace.HeaderRequestID, v)
	}
	if v := parent.Headers.Get(trace.HeaderSpanID); v != "" {
		child.Headers.Set(trace.HeaderSpanID, v)
	}
}

// childRequest builds a child request to a service, carrying the trace
// context of the parent.
func childRequest(parent *httpsim.Request, service, path string) *httpsim.Request {
	r := httpsim.NewRequest("GET", path)
	r.Headers.Set(mesh.HeaderHost, service)
	CopyTrace(parent, r)
	return r
}
