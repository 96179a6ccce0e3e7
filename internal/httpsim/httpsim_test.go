package httpsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

type env struct {
	sched  *simnet.Scheduler
	net    *simnet.Network
	ha, hb *transport.Host
}

func newEnv(t *testing.T, cfg simnet.LinkConfig) *env {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	a := n.AddNode("client")
	b := n.AddNode("server")
	n.Connect(a, b, cfg)
	return &env{sched: s, net: n, ha: transport.NewHost(a), hb: transport.NewHost(b)}
}

func TestHeaderBasics(t *testing.T) {
	var h Header
	h.Set("X-Request-Id", "abc")
	if h.Get("x-request-id") != "abc" || h.Get("X-REQUEST-ID") != "abc" {
		t.Fatal("case-insensitive get failed")
	}
	if !h.Has("X-Request-Id") {
		t.Fatal("Has failed")
	}
	h.Del("X-REQUEST-ID")
	if h.Has("x-request-id") {
		t.Fatal("Del failed")
	}
}

func TestHeaderClone(t *testing.T) {
	var h Header
	h.Set("a", "1")
	c := h.Clone()
	c.Set("a", "2")
	if h.Get("a") != "1" {
		t.Fatal("clone shares storage")
	}
	var nilH Header
	got := nilH.Clone()
	if got.Set("a", "1"); len(got) != 1 || got.Get("a") != "1" || len(nilH) != 0 {
		t.Fatal("nil clone not usable")
	}
}

func TestHeaderStringDeterministic(t *testing.T) {
	var h Header
	h.Set("b", "2")
	h.Set("a", "1")
	want := "a: 1\r\nb: 2\r\n"
	for i := 0; i < 10; i++ {
		if h.String() != want {
			t.Fatalf("String() = %q, want %q", h.String(), want)
		}
	}
}

func TestWireSizeIncludesEverything(t *testing.T) {
	req := NewRequest("GET", "/product")
	base := req.WireSize()
	req.Headers.Set("x-request-id", "1234")
	if req.WireSize() <= base {
		t.Fatal("headers not counted in wire size")
	}
	withHeaders := req.WireSize()
	req.BodyBytes = 1000
	if req.WireSize() != withHeaders+1000 {
		t.Fatal("body not counted in wire size")
	}
	resp := NewResponse(StatusOK)
	if resp.WireSize() <= 0 {
		t.Fatal("response wire size must be positive")
	}
}

func TestRequestResponseRoundTrip(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	srv, err := NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		if req.Path != "/hello" {
			t.Fatalf("path = %s", req.Path)
		}
		if req.Headers.Get("x-test") != "yes" {
			t.Fatal("request headers lost in transit")
		}
		resp := NewResponse(StatusOK)
		resp.Headers.Set("x-served-by", "b")
		resp.BodyBytes = 5000
		respond(resp)
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	req := NewRequest("GET", "/hello")
	req.Headers.Set("x-test", "yes")
	var got *Response
	cl.Do(req, func(r *Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
	})
	e.sched.Run()
	if got == nil {
		t.Fatal("no response")
	}
	if got.Status != StatusOK || got.BodyBytes != 5000 || got.Headers.Get("x-served-by") != "b" {
		t.Fatalf("response = %+v", got)
	}
	if srv.Served() != 1 {
		t.Fatalf("served = %d", srv.Served())
	}
}

func TestConcurrentRequestsMatchByID(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	// Respond to even requests after a delay so responses come back
	// out of submission order.
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		resp := NewResponse(StatusOK)
		resp.Headers.Set("x-echo", req.Headers.Get("x-id"))
		if req.Headers.Get("x-id") == "0" {
			e.sched.After(100*time.Millisecond, func() { respond(resp) })
		} else {
			respond(resp)
		}
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	got := map[string]string{}
	for i := 0; i < 4; i++ {
		req := NewRequest("GET", "/")
		id := string(rune('0' + i))
		req.Headers.Set("x-id", id)
		cl.Do(req, func(r *Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got[id] = r.Headers.Get("x-echo")
		})
	}
	e.sched.Run()
	if len(got) != 4 {
		t.Fatalf("got %d responses", len(got))
	}
	for id, echo := range got {
		if id != echo {
			t.Fatalf("response for %s matched to %s", id, echo)
		}
	}
}

func TestLargeBodyTransferTime(t *testing.T) {
	// A 1 MB response over 8 Mbps takes ≈ 1.08s (with header overhead);
	// confirm bodies are accounted on the wire.
	e := newEnv(t, simnet.LinkConfig{Rate: 8 * simnet.Mbps, Delay: 0})
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		resp := NewResponse(StatusOK)
		resp.BodyBytes = 1 << 20
		respond(resp)
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	var done time.Duration
	cl.Do(NewRequest("GET", "/big"), func(r *Response, err error) { done = e.sched.Now() })
	e.sched.RunUntil(30 * time.Second)
	if done == 0 {
		t.Fatal("no response")
	}
	if done < time.Second || done > 3*time.Second {
		t.Fatalf("1MB over 8Mbps took %v, want ~1.1s", done)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Millisecond})
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		// Never respond.
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	var gotErr error
	cl.Do(NewRequest("GET", "/"), func(r *Response, err error) { gotErr = err })
	e.sched.RunFor(time.Second)
	cl.Conn().Abort()
	e.sched.Run()
	if gotErr == nil {
		t.Fatal("pending request not failed on close")
	}
}

// TestClientPendingOrderAndRelease: with six requests in flight and
// three answered out of order, each reply reaches its own callback and
// every slot past the live calls is nil, so no spent call record (or
// what its callback captured) stays reachable through the array; Abort
// then fails the other three in issue order and drops the array.
func TestClientPendingOrderAndRelease(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Millisecond})
	respond := map[string]func(*Response){}
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, r func(*Response)) { respond[req.Path] = r })
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})

	const calls = 6
	var got []string
	for i := 0; i < calls; i++ {
		path := fmt.Sprintf("/%d", i)
		cl.Do(NewRequest("GET", path), func(r *Response, err error) {
			switch {
			case err != nil:
				got = append(got, path+" failed")
			case r.Headers.Get("x-path") != path:
				t.Fatalf("reply for %s reached the callback of %s", r.Headers.Get("x-path"), path)
			default:
				got = append(got, path)
			}
		})
	}
	e.sched.RunFor(time.Second)
	if len(respond) != calls {
		t.Fatalf("server holds %d requests, want %d", len(respond), calls)
	}

	spareZeroed := func(when string) {
		t.Helper()
		for i, p := range cl.pending[len(cl.pending):cap(cl.pending)] {
			if p != nil {
				t.Fatalf("%s: spare slot %d holds call %d", when, len(cl.pending)+i, p.id)
			}
		}
	}
	for n, i := range []int{3, 0, 5} {
		resp := NewResponse(StatusOK)
		resp.Headers.Set("x-path", fmt.Sprintf("/%d", i))
		respond[fmt.Sprintf("/%d", i)](resp)
		e.sched.RunFor(time.Second)
		when := fmt.Sprintf("after reply %d", n)
		if len(got) != n+1 || got[n] != fmt.Sprintf("/%d", i) {
			t.Fatalf("%s: callbacks ran %v", when, got)
		}
		spareZeroed(when)
	}

	cl.Conn().Abort()
	want := []string{"/3", "/0", "/5", "/1 failed", "/2 failed", "/4 failed"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("callbacks ran %v, want %v", got, want)
	}
	if cap(cl.pending) != 0 {
		t.Fatalf("the client keeps its pending array (%d calls, cap %d) after Abort", len(cl.pending), cap(cl.pending))
	}
}

func TestDoOnClosedClient(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps})
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		respond(NewResponse(StatusOK))
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	e.sched.RunFor(time.Second)
	cl.Conn().Abort()
	var gotErr error
	cl.Do(NewRequest("GET", "/"), func(r *Response, err error) { gotErr = err })
	e.sched.Run()
	if gotErr != ErrConnClosed {
		t.Fatalf("err = %v, want ErrConnClosed", gotErr)
	}
}

// respondPanic calls respond with resp and returns what it panicked
// with, nil if it returned.
func respondPanic(respond func(*Response), resp *Response) (v any) {
	defer func() { v = recover() }()
	respond(resp)
	return nil
}

const doubleRespond = "httpsim: respond called twice"

func TestRespondTwicePanics(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps})
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		respond(NewResponse(StatusOK))
		if v := respondPanic(respond, NewResponse(StatusOK)); v != doubleRespond {
			t.Fatalf("double respond panicked with %v, want %q", v, doubleRespond)
		}
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	cl.Do(NewRequest("GET", "/"), func(*Response, error) {})
	e.sched.Run()
}

// TestRespondAfterRecordReusedPanics: request A is answered, request B
// takes the server record A's respond holds (the pool hands back the
// record just put), and A's respond is called again from B's handler.
// It still panics as a double respond, and B gets its own answer, not
// A's second one.
func TestRespondAfterRecordReusedPanics(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps})
	var respondA func(*Response)
	var late any
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		if req.Path == "/a" {
			respondA = respond
			respond(NewResponse(StatusOK))
			return
		}
		late = respondPanic(respondA, NewResponse(StatusForbidden))
		respond(NewResponse(StatusConflict))
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	got := map[string][]int{}
	for _, path := range []string{"/a", "/b"} {
		cl.Do(NewRequest("GET", path), func(r *Response, err error) {
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			got[path] = append(got[path], r.Status)
		})
	}
	e.sched.Run()
	if late != doubleRespond {
		t.Fatalf("A's second respond, after B took its record, panicked with %v, want %q", late, doubleRespond)
	}
	if len(got["/a"]) != 1 || got["/a"][0] != StatusOK || len(got["/b"]) != 1 || got["/b"][0] != StatusConflict {
		t.Fatalf("answers = %v, want /a [200] and /b [409]", got)
	}
}

func TestCtxConnExposed(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps})
	var gotConn *transport.Conn
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
		gotConn = ctx.Conn
		ctx.Conn.SetMark(simnet.MarkHigh)
		respond(NewResponse(StatusOK))
	})
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	cl.Do(NewRequest("GET", "/"), func(*Response, error) {})
	e.sched.Run()
	if gotConn == nil {
		t.Fatal("handler saw no conn")
	}
	if gotConn.Mark() != simnet.MarkHigh {
		t.Fatal("conn mark not settable from handler")
	}
}

func TestServerDuplicatePort(t *testing.T) {
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps})
	h := func(ctx Ctx, req *Request, respond func(*Response)) { respond(NewResponse(StatusOK)) }
	if _, err := NewServer(e.hb, 8080, h); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(e.hb, 8080, h); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if _, err := NewServer(e.hb, 8081, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

// TestPropertyHeadersSurviveTransit: arbitrary header lists and body
// sizes arrive intact at the server, and the response's headers and
// sizes return intact, over a lossy link.
func TestPropertyHeadersSurviveTransit(t *testing.T) {
	f := func(seed int64, nHdr uint8, body uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, simnet.LinkConfig{Rate: 50 * simnet.Mbps, Delay: time.Millisecond})
		e.net.Node("client").NICs()[0].Impair(simnet.Impairment{LossProb: 0.05, Seed: seed})

		var want Header
		n := int(nHdr)%10 + 1
		for i := 0; i < n; i++ {
			want.Set(fmt.Sprintf("x-k%d", i), fmt.Sprintf("v%d", rng.Intn(1000)))
		}

		ok := true
		NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) {
			for _, f := range want {
				if req.Headers.Get(f.key) != f.value {
					ok = false
				}
			}
			if req.BodyBytes != int(body) {
				ok = false
			}
			resp := NewResponse(StatusOK)
			resp.Headers = want.Clone()
			resp.BodyBytes = int(body) * 2
			respond(resp)
		})
		cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{MinRTO: 20 * time.Millisecond})
		req := NewRequest("GET", "/prop")
		req.Headers = want.Clone()
		req.BodyBytes = int(body)
		done := false
		cl.Do(req, func(resp *Response, err error) {
			done = true
			if err != nil || resp.BodyBytes != int(body)*2 {
				ok = false
				return
			}
			for _, f := range want {
				if resp.Headers.Get(f.key) != f.value {
					ok = false
				}
			}
		})
		e.sched.RunUntil(time.Minute)
		return ok && done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestServerRequestAllocs is the allocation budget of one request and
// its response over a warm connection, the request and response made
// once: the respond closure the server hands its handler is the one
// allocation. A heap-escaped responded flag beside the closure made it
// two.
func TestServerRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Millisecond})
	resp := NewResponse(StatusOK)
	NewServer(e.hb, 8080, func(ctx Ctx, req *Request, respond func(*Response)) { respond(resp) })
	cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
	req := NewRequest("GET", "/")
	answered := 0
	cb := func(*Response, error) { answered++ }
	n := testing.AllocsPerRun(100, func() {
		cl.Do(req, cb)
		e.sched.Run()
	})
	if answered != 101 {
		t.Fatalf("%d of 101 requests answered", answered)
	}
	t.Logf("%v allocations", n)
	if n > 1 {
		t.Errorf("a request and its response allocate %v times, budget 1", n)
	}
}
