package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("req", Labels{"svc": "x"})
	b := r.Counter("req", Labels{"svc": "x"})
	if a != b {
		t.Fatal("same name+labels returned different counters")
	}
	c := r.Counter("req", Labels{"svc": "y"})
	if a == c {
		t.Fatal("different labels shared a counter")
	}
	a.Inc()
	a.Add(4)
	if a.Value() != 5 {
		t.Fatalf("value = %d", a.Value())
	}
	if r.CounterTotal("req") != 5 {
		t.Fatalf("total = %d", r.CounterTotal("req"))
	}
	c.Add(10)
	if r.CounterTotal("req") != 15 {
		t.Fatalf("total = %d", r.CounterTotal("req"))
	}
}

func TestLabelsKeyOrderIndependent(t *testing.T) {
	a := Labels{"a": "1", "b": "2"}
	b := Labels{"b": "2", "a": "1"}
	if a.String() != b.String() {
		t.Fatal("label key depends on declaration order")
	}
	var empty Labels
	if len(empty.appendKey(nil)) != 0 {
		t.Fatal("empty labels key not empty")
	}
}

// sortedKey is the rendering appendKey replaced: collect the keys, sort
// them, join k=v with commas. The series index and Dump's output are
// keyed by it, so appendKey has to equal it byte for byte.
func sortedKey(l Labels) string {
	ks := make([]string, 0, len(l))
	for k := range l {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

func TestLabelsKeyMatchesSortedRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		for i := range b {
			b[i] = "abcxyz_-09,="[rng.Intn(12)]
		}
		return string(b)
	}
	sets := []Labels{
		nil,
		{},
		{"svc": "reviews"},
		{"a": "1", "b": "2"},
		{"b": "2", "a": "1"},
		{"k": strings.Repeat("v", 300)}, // outgrows the stack buffer
		{"a": "", "": "a"},
	}
	nine := Labels{}
	for i := 0; i < 9; i++ { // outgrows the fixed key array
		nine[fmt.Sprintf("k%d", 8-i)] = fmt.Sprint(i)
	}
	sets = append(sets, nine)
	for i := 0; i < 500; i++ {
		l := Labels{}
		for n := rng.Intn(12); n > 0; n-- {
			l[word(6)] = word(40)
		}
		sets = append(sets, l)
	}
	for _, l := range sets {
		var buf keyBuf
		if got, want := string(l.appendKey(buf[:0])), sortedKey(l); got != want {
			t.Fatalf("appendKey(%v) = %q, want %q", map[string]string(l), got, want)
		}
		if got, want := l.String(), "{"+sortedKey(l)+"}"; got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// A lookup that hits an existing series allocates nothing: no sorted
// key slice, no builder, no key string.
func TestRegistryHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	labels := Labels{"src": "frontend", "dst": "reviews", "code": "200"}
	r.Counter("req", labels).Inc()
	r.Gauge("depth", labels).Set(1)
	r.Histogram("lat", labels).Record(1)
	if n := testing.AllocsPerRun(100, func() { r.Counter("req", labels).Inc() }); n != 0 {
		t.Errorf("Counter hit allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Gauge("depth", labels).Set(2) }); n != 0 {
		t.Errorf("Gauge hit allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Histogram("lat", labels).Record(2) }); n != 0 {
		t.Errorf("Histogram hit allocates %v objects, want 0", n)
	}
	if r.Counter("req", Labels{"code": "200", "dst": "reviews", "src": "frontend"}) != r.Counter("req", labels) {
		t.Error("the same labels written in another order reached a different series")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", nil)
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g", g.Value())
	}
}

// Exercised under -race in CI: counters and gauges must tolerate
// concurrent writers (histograms deliberately excluded — see the
// Registry doc comment).
func TestConcurrentCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Counter("hits", Labels{"svc": "a"}).Inc()
				r.Gauge("depth", Labels{"svc": "a"}).Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits", Labels{"svc": "a"}).Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Gauge("depth", Labels{"svc": "a"}).Value(); got != goroutines*per {
		t.Fatalf("gauge = %g, want %d", got, goroutines*per)
	}
}

func TestHistogramAndDump(t *testing.T) {
	r := NewRegistry()
	r.ObserveDuration("latency", Labels{"svc": "a"}, 5*time.Millisecond)
	r.ObserveDuration("latency", Labels{"svc": "a"}, 10*time.Millisecond)
	h := r.Histogram("latency", Labels{"svc": "a"})
	if h.Count() != 2 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	r.Counter("hits", nil).Inc()
	d := r.Dump()
	if !strings.Contains(d, "counter hits{} 1") {
		t.Fatalf("dump missing counter: %s", d)
	}
	if !strings.Contains(d, "histogram latency{svc=a}") {
		t.Fatalf("dump missing histogram: %s", d)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", Labels{"svc": "a"}).Inc()
	r.Counter("b_total", Labels{"svc": "b"}).Inc() // same family: one entry
	r.Gauge("a_depth", nil).Set(1)
	r.ObserveDuration("c_duration", nil, time.Millisecond)
	got := r.Families()
	want := []Family{
		{Name: "a_depth", Kind: "gauge"},
		{Name: "b_total", Kind: "counter"},
		{Name: "c_duration", Kind: "histogram"},
	}
	if len(got) != len(want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Families()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
