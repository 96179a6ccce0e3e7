package mesh

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/trace"
)

// TestSpanFields drives gateway -> frontend -> backend through a
// retried call, a fallback-served call and calls ending in an error, and
// checks every span's typed fields in recording order, root included.
func TestSpanFields(t *testing.T) {
	type span struct {
		Service, Name, Priority, Degraded string
		Status                            int32
		Retries                           int16
		Client                            bool
	}
	// Server spans carry the request class; client spans carry the call's
	// outcome.
	server := func(svc string, status int32) span {
		return span{Service: svc, Name: "GET /x", Priority: PriorityHigh, Status: status}
	}
	client := func(svc, upstream string, status int32, retries int16, degraded string) span {
		return span{Service: svc, Name: "call " + upstream + " /x", Status: status, Retries: retries, Degraded: degraded, Client: true}
	}
	root := func(status int32) span {
		return span{Service: "ingress-gateway", Name: "GET /x", Priority: PriorityHigh, Status: status}
	}
	// failFirst answers 500 to the first n backend requests, then 200.
	failFirst := func(n int) func(*cluster.Pod, *httpsim.Request, func(*httpsim.Response)) {
		return func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
			if n > 0 {
				n--
				respond(httpsim.NewResponse(httpsim.StatusInternalServerError))
				return
			}
			echoBackend(pod, req, respond)
		}
	}

	for _, tc := range []struct {
		name    string
		backend func(*cluster.Pod, *httpsim.Request, func(*httpsim.Response))
		setup   func(*testbed)
		want    []span
	}{{
		name:    "retried",
		backend: failFirst(1),
		setup:   func(*testbed) {},
		want: []span{
			server("backend", 500),
			server("backend", 200),
			client("frontend", "backend", 200, 1, ""),
			server("frontend", 200),
			client("gateway", "frontend", 200, 0, ""),
			root(200),
		},
	}, {
		name:    "fallback",
		backend: failFirst(2),
		setup: func(tb *testbed) {
			cp := tb.m.ControlPlane()
			cp.SetRetryPolicy("backend", RetryPolicy{MaxRetries: 1, RetryOn5xx: true})
			cp.SetFallbackPolicy("backend", FallbackPolicy{Enabled: true})
		},
		want: []span{
			server("backend", 500),
			server("backend", 500),
			client("frontend", "backend", 200, 1, "backend"),
			server("frontend", 200),
			client("gateway", "frontend", 200, 0, ""),
			root(200),
		},
	}, {
		// The frontend's call times out; its app answers 502.
		name:    "backend error",
		backend: echoBackend,
		setup: func(tb *testbed) {
			cp := tb.m.ControlPlane()
			cp.SetRetryPolicy("backend", RetryPolicy{PerTryTimeout: 100 * time.Millisecond})
			cp.SetRetryPolicy("frontend", RetryPolicy{})
			tb.cl.Pod("backend-1").Partition(true)
			tb.cl.Pod("backend-2").Partition(true)
		},
		want: []span{
			client("frontend", "backend", 0, 0, ""),
			server("frontend", 502),
			client("gateway", "frontend", 502, 0, ""),
			root(502),
		},
	}, {
		// The gateway's own call times out: the root reads as failed.
		name:    "gateway error",
		backend: echoBackend,
		setup: func(tb *testbed) {
			tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{MaxRetries: 1, PerTryTimeout: 100 * time.Millisecond})
			tb.cl.Pod("frontend-1").Partition(true)
		},
		want: []span{
			client("gateway", "frontend", 0, 1, ""),
			root(0),
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := buildBed(t, Config{Seed: 1}, tc.backend)
			tb.gw.SetClassifier(PathClassifier(nil, PriorityHigh))
			tc.setup(tb)
			tb.gw.Serve(extReq("/x"), func(*httpsim.Response, error) {})
			tb.sched.RunUntil(5 * time.Second)

			tracer := tb.m.Tracer()
			ids := tracer.TraceIDs()
			if len(ids) != 1 {
				t.Fatalf("traces = %v, want one", ids)
			}
			var got []span
			for _, s := range tracer.Trace(ids[0]) {
				got = append(got, span{s.Service, s.Name, s.Priority, s.Degraded, s.Status, s.Retries, s.Client})
			}
			if len(got) != len(tc.want) {
				t.Fatalf("spans = %+v\nwant %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("span %d = %+v\nwant     %+v", i, got[i], tc.want[i])
				}
			}
			if r := tracer.Tree(ids[0]).Span; r.Service != "ingress-gateway" || r.Status != tc.want[len(tc.want)-1].Status {
				t.Fatalf("tree root = %+v", r)
			}
		})
	}
}

// TestSpanNamesInterned: every span of a given name — the gateway root
// and each server span ("GET /x"), each client span ("call <svc> /x") —
// shares one backing array across hops and requests, while distinct
// names stay distinct. A name already held costs no allocation, and two
// meshes' collectors keep tables of their own.
func TestSpanNamesInterned(t *testing.T) {
	run := func(paths ...string) *trace.Collector {
		tb := buildBed(t, Config{Seed: 1}, echoBackend)
		for _, p := range paths {
			tb.gw.Serve(extReq(p), func(*httpsim.Response, error) {})
		}
		tb.sched.RunUntil(5 * time.Second)
		return tb.m.Tracer()
	}
	tracer := run("/x", "/x", "/y", "/x")
	data := map[string]*byte{}
	spans := 0
	for _, id := range tracer.TraceIDs() {
		for _, s := range tracer.Trace(id) {
			spans++
			p := unsafe.StringData(s.Name)
			if q, ok := data[s.Name]; ok && q != p {
				t.Errorf("%s span %q has a copy of its own", s.Service, s.Name)
			}
			data[s.Name] = p
		}
	}
	want := []string{"GET /x", "GET /y", "call backend /x", "call backend /y", "call frontend /x", "call frontend /y"}
	if spans != 4*5 || len(data) != len(want) {
		t.Fatalf("%d spans with %d names, want 20 spans with %v", spans, len(data), want)
	}
	for _, name := range want {
		words := strings.Split(name, " ")
		got := tracer.Name(words...)
		if got != name || unsafe.StringData(got) != data[name] {
			t.Errorf("Name(%q) = %q, not the spans' copy", words, got)
		}
		if n := testing.AllocsPerRun(100, func() { tracer.Name(words...) }); n != 0 {
			t.Errorf("Name(%q), already held, allocates %v times", words, n)
		}
	}
	// Names that concatenate alike stay distinct when their words differ.
	seen := map[*byte]string{}
	for _, words := range [][]string{
		{"call", "backend", "/x"}, {"call", "backend/", "x"}, {"call", "back", "end /x"}, {"call", "backend", "/xy"},
		{"GET", "/x"}, {"GE", "T/x"}, {"GET/x"}, {"GET", "", "/x"},
	} {
		got := tracer.Name(words...)
		if want := strings.Join(words, " "); got != want {
			t.Errorf("Name(%q) = %q, want %q", words, got, want)
		}
		p := unsafe.StringData(got)
		if prev, ok := seen[p]; ok && prev != got {
			t.Errorf("Name(%q) shares its bytes with %q", words, prev)
		}
		seen[p] = got
	}
	other := run("/x")
	for _, s := range other.Trace(other.TraceIDs()[0]) {
		if unsafe.StringData(s.Name) == data[s.Name] {
			t.Errorf("two meshes share the name %q", s.Name)
		}
	}
}

func TestStatusClassMatchesFormat(t *testing.T) {
	for _, status := range []int{0, 1, 99, 100, 200, 204, 302, 404, 499, 500, 503, 599, 999, 1000, 12345, -1, -99, -100, -250} {
		if got, want := statusClass(status), fmt.Sprintf("%dxx", status/100); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", status, got, want)
		}
	}
}
