package mesh

import (
	"meshlayer/internal/hdr"
	"meshlayer/internal/metrics"
)

// serviceSeries holds the metric series every hop of a service's
// traffic touches, so an observation is a counter add or a histogram
// record instead of a registry lookup (label map, sorted key, mutex).
// Each handle is resolved at the first observation that would have
// created its series, never before: the registry holds exactly the
// series it would hold without the cache.
type serviceSeries struct {
	reg     *metrics.Registry
	service string

	inOK *metrics.Counter
	// dur is MetricRequestDuration by direction: inbound, outbound.
	dur [2]*hdr.Histogram
	// outCodes is the outbound MetricRequestsTotal by code label:
	// statusClasses' order, then "error" in the last slot.
	outCodes [len(statusClasses) + 1]*metrics.Counter
}

// Directions, indexing serviceSeries.dur.
const (
	dirInbound = iota
	dirOutbound
)

var directionLabels = [...]string{dirInbound: "inbound", dirOutbound: "outbound"}

// seriesOf returns the service's series cache, made empty on first use.
func (m *Mesh) seriesOf(service string) *serviceSeries {
	s := m.series[service]
	if s == nil {
		s = &serviceSeries{reg: m.metrics, service: service}
		m.series[service] = s
	}
	return s
}

// inboundOK is the inbound MetricRequestsTotal{code=ok} counter: a
// request handed to the application.
func (s *serviceSeries) inboundOK() *metrics.Counter {
	if s.inOK == nil {
		s.inOK = s.reg.Counter(MetricRequestsTotal,
			metrics.Labels{"service": s.service, "direction": "inbound", "code": "ok"})
	}
	return s.inOK
}

// duration is MetricRequestDuration for one direction.
func (s *serviceSeries) duration(dir int) *hdr.Histogram {
	if s.dur[dir] == nil {
		s.dur[dir] = s.reg.Histogram(MetricRequestDuration,
			metrics.Labels{"service": s.service, "direction": directionLabels[dir]})
	}
	return s.dur[dir]
}

// outboundRequests is the outbound MetricRequestsTotal counter of a call
// that ended with status, or in an error when failed is set.
func (s *serviceSeries) outboundRequests(status int, failed bool) *metrics.Counter {
	slot, code := len(statusClasses), "error"
	if !failed {
		c := status / 100
		if c < 0 || c >= len(statusClasses) {
			// No status class of its own: looked up, not cached.
			return s.reg.Counter(MetricRequestsTotal,
				metrics.Labels{"service": s.service, "direction": "outbound", "code": statusClass(status)})
		}
		slot, code = c, statusClasses[c]
	}
	if s.outCodes[slot] == nil {
		s.outCodes[slot] = s.reg.Counter(MetricRequestsTotal,
			metrics.Labels{"service": s.service, "direction": "outbound", "code": code})
	}
	return s.outCodes[slot]
}
