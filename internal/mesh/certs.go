package mesh

import (
	"strconv"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
)

// Cert is a workload identity credential issued by the control plane —
// the stand-in for the SPIFFE/mTLS certificates an Istio control plane
// provisions (the "certificate management" box of the paper's Fig. 1).
// Sidecars stamp its serial on every outbound request; no inbound check
// verifies it, so identity costs request bytes and issuance, not a
// handshake.
type Cert struct {
	Service  string
	Serial   uint64
	NotAfter time.Duration // simulated expiry; zero = never expires
}

// Valid reports whether the cert authenticates the named service at
// the given time.
func (c *Cert) Valid(service string, now time.Duration) bool {
	if c == nil || c.Service != service {
		return false
	}
	return c.NotAfter == 0 || now < c.NotAfter
}

// HeaderCert (the certificate-serial header) lives in headers.go, the
// header registry.

// DefaultCertTTL is the issued-certificate lifetime (Istio default:
// 24h; scaled down so rotation is observable in short simulations).
const DefaultCertTTL = time.Hour

// IssueCert mints a certificate for a service. Sidecars request one on
// their first outbound call and again once it expires.
func (cp *ControlPlane) IssueCert(service string) *Cert {
	cp.certSerial++
	c := &Cert{
		Service:  service,
		Serial:   cp.certSerial,
		NotAfter: cp.mesh.sched.Now() + DefaultCertTTL,
	}
	cp.bump()
	return c
}

// cert returns the sidecar's current credential, requesting a fresh one
// if missing or no longer valid (automatic rotation).
func (sc *Sidecar) cert() *Cert {
	now := sc.mesh.sched.Now()
	if sc.identity.Valid(sc.service, now) {
		return sc.identity
	}
	sc.identity = sc.mesh.cp.IssueCert(sc.service)
	sc.mesh.metrics.Counter(MetricCertsIssuedTotal, metrics.Labels{"service": sc.service}).Inc()
	return sc.identity
}

// stampIdentity attaches the caller's identity (and cert) to an
// outbound request.
func (sc *Sidecar) stampIdentity(req *httpsim.Request) {
	req.Headers.Set(HeaderSource, sc.service)
	req.Headers.Set(HeaderCert, strconv.FormatUint(sc.cert().Serial, 10))
}
