package mesh

import (
	"testing"
	"time"

	"meshlayer/internal/httpsim"
	"meshlayer/internal/trace"
)

func TestSubsetRefString(t *testing.T) {
	if (SubsetRef{}).String() != "*" {
		t.Fatal("zero subset string")
	}
	if (SubsetRef{Key: "version", Value: "v1"}).String() != "version=v1" {
		t.Fatal("subset string")
	}
	if !(SubsetRef{}).IsZero() || (SubsetRef{Key: "a"}).IsZero() {
		t.Fatal("IsZero")
	}
}

func TestNoEndpointsWhenAllUnready(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	tb.cl.Pod("backend-1").SetReady(false)
	tb.cl.Pod("backend-2").SetReady(false)
	tb.m.ControlPlane().SetRetryPolicy("backend", RetryPolicy{})
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{})
	var got *httpsim.Response
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) { got = r })
	tb.sched.Run()
	// The frontend's call fails with ErrNoEndpoints, surfacing as 502.
	if got == nil || got.Status != httpsim.StatusBadGateway {
		t.Fatalf("got %+v, want 502", got)
	}
}

func TestSidecarAccessors(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	sc := tb.b1
	if sc.Pod() != tb.cl.Pod("backend-1") {
		t.Fatal("pod accessor")
	}
	if sc.ServiceName() != "backend" {
		t.Fatalf("service = %q", sc.ServiceName())
	}
	if tb.m.Sidecar("backend-1") != sc || tb.m.Sidecar("zz") != nil {
		t.Fatal("mesh sidecar lookup")
	}
	if len(tb.m.Sidecars()) != 4 {
		t.Fatalf("sidecars = %d", len(tb.m.Sidecars()))
	}
	if tb.m.Cluster() != tb.cl || tb.m.Scheduler() != tb.sched {
		t.Fatal("mesh accessors")
	}
}

func TestMeshRequestDurationRecorded(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) {})
	tb.sched.Run()
	h := tb.m.Metrics().Histogram("mesh_request_duration",
		map[string]string{"service": "backend", "direction": "inbound"})
	if h.Count() != 1 {
		t.Fatalf("backend inbound durations = %d", h.Count())
	}
	ho := tb.m.Metrics().Histogram("mesh_request_duration",
		map[string]string{"service": "backend", "direction": "outbound"})
	if ho.Count() != 1 {
		t.Fatalf("backend outbound durations = %d", ho.Count())
	}
}

func TestEndpointStateObserve(t *testing.T) {
	st := &endpointState{}
	cb := CircuitBreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Second}
	st.observe(10*time.Millisecond, false, false, cb, 0)
	if st.ewma == 0 {
		t.Fatal("no ewma sample")
	}
	prior := st.ewma
	st.observe(20*time.Millisecond, false, false, cb, 0)
	if st.ewma <= prior {
		t.Fatal("ewma did not move toward slower sample")
	}
	// Two failures open the breaker; a success resets the count.
	st.observe(0, true, false, cb, 100)
	st.observe(0, false, false, cb, 100)
	st.observe(0, true, false, cb, 100)
	if !st.available(100) {
		t.Fatal("breaker opened without consecutive failures")
	}
	st.observe(0, true, false, cb, 100)
	st.observe(0, true, false, cb, 100)
	if st.available(100) {
		t.Fatal("breaker did not open")
	}
	// After OpenFor the breaker goes half-open: one trial is admitted,
	// a second concurrent request is not.
	later := 100 + time.Second + 1
	if !st.available(later) {
		t.Fatal("breaker did not go half-open after OpenFor")
	}
	st.trial = true
	if st.available(later) {
		t.Fatal("second request admitted during half-open trial")
	}
	// A successful trial closes the breaker; a failed one re-opens it.
	st.observe(0, false, true, cb, later)
	if st.phase != breakerClosed || !st.available(later) {
		t.Fatal("trial success did not close breaker")
	}
}

// The push delay is the distributors' hold: the store takes a change at
// once, every sidecar's snapshot only after the hold. Without
// distribution it does nothing.
func TestPushDelayDefersConfig(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.SetPushDelay(time.Hour)
	cp.SetLBPolicy("backend", LBRandom)
	if tb.fe.lbPolicyFor("backend") != LBRandom {
		t.Fatal("a push delay without distribution deferred a change")
	}

	cp.EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})
	cp.SetPushDelay(500 * time.Millisecond)
	v := cp.Version()
	cp.SetLBPolicy("backend", LBEWMA)
	if cp.Version() == v || cp.LBPolicyFor("backend") != LBEWMA {
		t.Fatal("the store did not take the change at once")
	}
	tb.sched.RunFor(400 * time.Millisecond)
	if tb.fe.lbPolicyFor("backend") != LBRandom {
		t.Fatal("config reached the sidecar before the hold ran out")
	}
	tb.sched.RunFor(time.Second)
	if tb.fe.lbPolicyFor("backend") != LBEWMA {
		t.Fatal("config never propagated")
	}
	// Lift the hold: the next change lands after one debounce.
	cp.SetPushDelay(0)
	cp.SetLBPolicy("backend", LBLeastRequest)
	tb.sched.RunFor(100 * time.Millisecond)
	if tb.fe.lbPolicyFor("backend") != LBLeastRequest {
		t.Fatal("hold not lifted")
	}
	cp.SetPushDelay(-5) // clamps to 0
	cp.SetLBPolicy("backend", LBRoundRobin)
	tb.sched.RunFor(100 * time.Millisecond)
	if tb.fe.lbPolicyFor("backend") != LBRoundRobin {
		t.Fatal("negative delay not clamped")
	}
}

// A route rule staged under the hold changes where traffic goes only
// once the hold runs out, with requests flowing throughout.
func TestPushDelayedRouteRuleTakesEffectMidTraffic(t *testing.T) {
	tb := buildBed(t, Config{Seed: 30}, echoBackend)
	cp := tb.m.ControlPlane()
	cp.EnableDistribution(DistributionConfig{Debounce: 20 * time.Millisecond})
	cp.SetPushDelay(2 * time.Second)
	cp.SetRouteRule(RouteRule{
		Service:       "backend",
		DefaultSubset: SubsetRef{Key: "version", Value: "v2"},
	})
	// One request a second: 0–2 before the rule lands at 2.02 s, 3–7
	// after.
	got := make([]string, 8)
	for i := range got {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err == nil {
				got[i] = r.Headers.Get("x-backend")
			}
		})
		tb.sched.RunFor(time.Second)
	}
	// Past the debounce but inside the hold, traffic still
	// round-robins both backends; once the hold runs out it pins to v2.
	if got[1] != "backend-1" && got[2] != "backend-1" {
		t.Fatalf("requests inside the hold never hit backend-1: %v", got)
	}
	for i := 3; i < len(got); i++ {
		if got[i] != "backend-2" {
			t.Fatalf("request %d after the hold went to %q: %v", i, got[i], got)
		}
	}
}

// spanIDRoundTrips are ids a run may write into the span-id header,
// with the edges of IDText's 256-id blocks where the hex width grows.
var spanIDRoundTrips = []uint64{0, 1, 0xab, 0xff, 0x100, 0x101, 0xfff, 0x1000, 0xdeadbeef,
	1 << 63, 1<<64 - 257, 1<<64 - 256, ^uint64(0)}

// spanIDHeaders are header values and what parseSpanID reads from them.
var spanIDHeaders = map[string]uint64{
	"":                  0,
	"zz":                0,
	"12zz":              0,
	"12 34":             0,
	" 12":               0,
	"1_2":               0,
	"0x12":              0,
	"+12":               0,
	"-1":                0,
	"1ffffffffffffffff": 0, // 65 bits
	"ffffffffffffffff":  ^uint64(0),
	"AB":                0xab,
	"00ab":              0xab,
}

// The span-id header is written only by trace.Collector.IDText, so
// every id a run parses round-trips. What a malformed header yields is pinned here:
// no parent (0), never a prefix. fmt.Sscanf("%x"), which this replaced,
// read the leading hex run instead — "12zz", "12 34" and " 12" gave
// 0x12 and "1_2" gave 0x1; on the rest of the table the two agree.
func TestSpanIDHeaderRoundTripAndMalformed(t *testing.T) {
	ids := trace.NewCollector()
	for _, id := range spanIDRoundTrips {
		if got := parseSpanID(ids.IDText(id)); got != id {
			t.Errorf("parseSpanID(IDText(%#x)) = %#x", id, got)
		}
	}
	if got := ids.IDText(0xAB); got != "ab" {
		t.Errorf("IDText(0xAB) = %q, want lower-case hex without a prefix", got)
	}
	for in, want := range spanIDHeaders {
		if got := parseSpanID(in); got != want {
			t.Errorf("parseSpanID(%q) = %#x, want %#x", in, got, want)
		}
	}
}

// FuzzParseSpanID: every hop parses the span-id header a peer wrote, so
// no header value may panic, every id round-trips through
// IDText, and a header reads as its value only when it is bare
// hex digits that fit 64 bits — anything else is 0, no parent.
//
//	go test -run '^$' -fuzz FuzzParseSpanID -fuzztime 30s ./internal/mesh
func FuzzParseSpanID(f *testing.F) {
	for in := range spanIDHeaders {
		f.Add(in, uint64(0))
	}
	for _, id := range spanIDRoundTrips {
		f.Add("", id)
	}
	ids := trace.NewCollector()
	f.Fuzz(func(t *testing.T, header string, id uint64) {
		if got := parseSpanID(ids.IDText(id)); got != id {
			t.Errorf("parseSpanID(IDText(%#x)) = %#x", id, got)
		}
		want, ok := bareHex(header)
		if !ok {
			want = 0
		}
		if got := parseSpanID(header); got != want {
			t.Errorf("parseSpanID(%q) = %#x, want %#x", header, got, want)
		}
	})
}

// bareHex is the fuzz oracle: s's value if s is one or more hex digits
// of either case that fit 64 bits.
func bareHex(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		var d byte
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			d = c - '0'
		case 'a' <= c && c <= 'f':
			d = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, false
		}
		if v>>60 != 0 {
			return 0, false // a fifth nibble past 64 bits
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}
