// Package metrics is a lightweight labeled-metrics registry used by the
// mesh's telemetry: counters, gauges, and latency histograms, queryable
// by name and label set. It is the stand-in for the metric-collection
// role of a service mesh control plane (Istio's telemetry pipeline).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"meshlayer/internal/hdr"
)

// Labels is an immutable-by-convention label set attached to a metric
// series.
type Labels map[string]string

// appendKey appends the labels' canonical rendering, the index of a
// family's series, to dst: k=v pairs joined by commas, keys sorted. The
// registry calls it on every lookup, so the keys are sorted in a fixed
// array and the bytes go to the caller's buffer; both are stack memory
// for the label sets this simulator uses, and append moves either to
// the heap when a set outgrows it.
func (l Labels) appendKey(dst []byte) []byte {
	var fixed [8]string
	ks := fixed[:0]
	for k := range l {
		ks = append(ks, k)
	}
	slices.Sort(ks) // generic, unlike sort.Strings: ks does not escape
	for i, k := range ks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = append(dst, l[k]...)
	}
	return dst
}

// keyBuf is the stack buffer a registry lookup renders its key into.
type keyBuf [192]byte

// String renders labels in {k=v,...} form.
func (l Labels) String() string { return "{" + string(l.appendKey(nil)) + "}" }

// Counter is a monotonically increasing value, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, safe for concurrent use
// (the float64 is stored as its IEEE-754 bits in a uint64).
type Gauge struct {
	bits atomic.Uint64
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named metric families. Series lookup, counters, and
// gauges are safe for concurrent use (the maps are mutex-guarded, the
// values atomic). Histograms are the exception: the underlying hdr
// buckets are not synchronized, so recording into the same histogram
// series must stay single-goroutine — the deterministic simulator's
// standing invariant.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]map[string]*Counter
	gauges     map[string]map[string]*Gauge
	histograms map[string]map[string]*hdr.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]map[string]*Counter),
		gauges:     make(map[string]map[string]*Gauge),
		histograms: make(map[string]map[string]*hdr.Histogram),
	}
}

// Counter returns (creating if needed) the counter name+labels.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.counters[name]
	if fam == nil {
		fam = make(map[string]*Counter)
		r.counters[name] = fam
	}
	var buf keyBuf
	k := labels.appendKey(buf[:0])
	c := fam[string(k)] // no copy: the conversion only indexes
	if c == nil {
		c = &Counter{}
		fam[string(k)] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge name+labels.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.gauges[name]
	if fam == nil {
		fam = make(map[string]*Gauge)
		r.gauges[name] = fam
	}
	var buf keyBuf
	k := labels.appendKey(buf[:0])
	g := fam[string(k)] // no copy: the conversion only indexes
	if g == nil {
		g = &Gauge{}
		fam[string(k)] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram name+labels.
func (r *Registry) Histogram(name string, labels Labels) *hdr.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.histograms[name]
	if fam == nil {
		fam = make(map[string]*hdr.Histogram)
		r.histograms[name] = fam
	}
	var buf keyBuf
	k := labels.appendKey(buf[:0])
	h := fam[string(k)] // no copy: the conversion only indexes
	if h == nil {
		h = hdr.New()
		fam[string(k)] = h
	}
	return h
}

// Family identifies one registered metric family: a name plus the kind
// of series it holds.
type Family struct {
	Name string
	Kind string // "counter", "gauge", or "histogram"
}

// Families lists every registered family sorted by name then kind —
// the hook the naming-convention audit tests against. A name used as
// two kinds (it should not be) yields two entries.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	var fams []Family
	for name := range r.counters {
		fams = append(fams, Family{Name: name, Kind: "counter"})
	}
	for name := range r.gauges {
		fams = append(fams, Family{Name: name, Kind: "gauge"})
	}
	for name := range r.histograms {
		fams = append(fams, Family{Name: name, Kind: "histogram"})
	}
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].Name != fams[j].Name {
			return fams[i].Name < fams[j].Name
		}
		return fams[i].Kind < fams[j].Kind
	})
	return fams
}

// CounterTotal sums a counter family across all label sets.
func (r *Registry) CounterTotal(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for _, c := range r.counters[name] {
		total += c.Value()
	}
	return total
}

// ObserveDuration records d into the named histogram.
func (r *Registry) ObserveDuration(name string, labels Labels, d time.Duration) {
	r.Histogram(name, labels).RecordDuration(d)
}

// Dump renders every series, sorted, for logs and debugging.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, fam := range r.counters {
		for k, c := range fam {
			lines = append(lines, fmt.Sprintf("counter %s{%s} %d", name, k, c.Value()))
		}
	}
	for name, fam := range r.gauges {
		for k, g := range fam {
			lines = append(lines, fmt.Sprintf("gauge %s{%s} %g", name, k, g.Value()))
		}
	}
	for name, fam := range r.histograms {
		for k, h := range fam {
			lines = append(lines, fmt.Sprintf("histogram %s{%s} %s", name, k, h.Summary()))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
