package mesh

import (
	"fmt"
	"strconv"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
)

// Cert is a workload identity credential issued by the control plane —
// the stand-in for the SPIFFE/mTLS certificates an Istio control plane
// provisions (the "certificate management" box of the paper's Fig. 1).
type Cert struct {
	Service  string
	Serial   uint64
	NotAfter time.Duration // simulated expiry; zero = never expires
	revoked  bool
}

// Valid reports whether the cert authenticates the named service at
// the given time.
func (c *Cert) Valid(service string, now time.Duration) bool {
	if c == nil || c.revoked || c.Service != service {
		return false
	}
	return c.NotAfter == 0 || now < c.NotAfter
}

// HeaderCert (the certificate-serial header) lives in headers.go, the
// header registry.

// DefaultCertTTL is the issued-certificate lifetime (Istio default:
// 24h; scaled down so rotation is observable in short simulations).
const DefaultCertTTL = time.Hour

// IssueCert mints a certificate for a service. Sidecars request one at
// injection time and after revocation.
func (cp *ControlPlane) IssueCert(service string) *Cert {
	cp.certSerial++
	c := &Cert{
		Service:  service,
		Serial:   cp.certSerial,
		NotAfter: cp.mesh.sched.Now() + DefaultCertTTL,
	}
	cp.certs[c.Serial] = c
	cp.bump()
	return c
}

// RevokeCert invalidates a certificate immediately.
func (cp *ControlPlane) RevokeCert(serial uint64) {
	if c, ok := cp.certs[serial]; ok {
		c.revoked = true
		cp.bump()
	}
}

// VerifyCert checks a presented serial against the CA state.
func (cp *ControlPlane) VerifyCert(serial uint64, service string, now time.Duration) bool {
	return cp.certs[serial].Valid(service, now)
}

// RequireMTLS makes every inbound check demand a valid peer
// certificate, not just a claimed identity header (strict mTLS mode).
func (cp *ControlPlane) RequireMTLS(on bool) {
	cp.strictMTLS = on
	cp.bump()
}

// MTLSRequired reports whether strict mode is on.
func (cp *ControlPlane) MTLSRequired() bool { return cp.strictMTLS }

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

// verifyPeer authenticates an inbound request's claimed identity under
// the current mTLS mode. In permissive mode the claim is accepted; in
// strict mode the presented cert must verify.
func (sc *Sidecar) verifyPeer(req *httpsim.Request) bool {
	if !sc.mesh.cp.MTLSRequired() {
		return true
	}
	src := req.Headers.Get(HeaderSource)
	var serial uint64
	fmt.Sscanf(req.Headers.Get(HeaderCert), "%d", &serial)
	if sc.mesh.cp.VerifyCert(serial, src, sc.mesh.sched.Now()) {
		return true
	}
	sc.mesh.metrics.Counter(MetricMTLSDeniedTotal, metrics.Labels{"service": sc.service}).Inc()
	return false
}
