package mesh

// This file is the mesh header registry: the single authoritative home
// of every header name the mesh stamps, reads, or strips. The meshvet
// headerreg analyzer enforces it — an `x-mesh-*` constant declared
// anywhere else, or a raw "x-mesh-..." literal anywhere at all, is a
// lint error, because a typo'd header silently never matches and that
// is exactly how a degraded response loses its provenance stamp.

// Well-known header names (beyond the trace package's).
const (
	// HeaderHost names the destination service of a request.
	HeaderHost = "host"
	// HeaderSource carries the caller's service identity — the
	// stand-in for the mTLS peer certificate.
	HeaderSource = "x-mesh-source"
	// HeaderPriority is the paper's custom priority header: the
	// classification assigned at ingress and carried with the request
	// through the whole call tree (§4.3 component 1-2).
	HeaderPriority = "x-mesh-priority"
	// HeaderHealth marks a request as an active health-check probe.
	// The destination sidecar answers probes itself (Envoy's health
	// check filter), so they test the pod's reachability and proxy
	// liveness without exercising — or being fooled by — the
	// application.
	HeaderHealth = "x-mesh-health"
	// HeaderDegraded marks a degraded (fallback) response and names the
	// service whose failure was papered over. Sidecars carry it back
	// through the call tree with the same provenance mechanism the
	// paper uses for priorities, so the edge can tell "served in full"
	// from "served degraded".
	HeaderDegraded = "x-mesh-degraded"
	// HeaderBudget carries the request's remaining end-to-end deadline
	// budget in integer microseconds. The gateway stamps the total;
	// each sidecar rewrites it on the outbound path net of its own
	// queueing and service time, and cancels child calls once it hits
	// zero.
	HeaderBudget = "x-mesh-budget"
	// HeaderShadow marks a mirrored (shadow) copy of a request so the
	// shadow target can tell mirrored traffic from real traffic.
	HeaderShadow = "x-mesh-shadow"
	// HeaderCert carries the presented certificate's serial — the wire
	// cost of mTLS in this model.
	HeaderCert = "x-mesh-cert"
)

// Federation header names.
const (
	// HeaderEWService names the real destination service of a request
	// transiting the east-west gateway pair (the host header is the
	// next-hop gateway service on the egress->ingress leg).
	HeaderEWService = "x-mesh-ew-service"
	// HeaderEWRegion names the target region. A gateway receiving a
	// request for its own region is the ingress half; any other region
	// makes it the egress half, forwarding across the WAN.
	HeaderEWRegion = "x-mesh-ew-region"
	// HeaderLocalOnly restricts the failover ladder to the local region
	// for this request — stamped by the ingress gateway on the final leg
	// so a request cannot bounce between regions.
	HeaderLocalOnly = "x-mesh-local-only"
	// HeaderRegion is response provenance: the region whose ingress
	// gateway served a cross-region request, carried end-to-end so the
	// edge can tell where traffic actually landed during a failover.
	HeaderRegion = "x-mesh-region"
)

// Control-plane header names.
const (
	// HeaderCtrl marks a control-plane push request; its value is the
	// push id the receiving sidecar uses to fetch the decoded update.
	HeaderCtrl = "x-mesh-ctrl"
	// HeaderFed marks a control-plane-to-control-plane summary exchange
	// request (federated mode); its value is the message id.
	HeaderFed = "x-mesh-fed"
)
