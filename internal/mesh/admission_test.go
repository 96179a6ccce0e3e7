package mesh

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/trace"
)

func TestAdmissionShedsOverload(t *testing.T) {
	tb := buildBed(t, Config{SidecarDelayMean: -1}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(20*time.Millisecond, func() { respond(httpsim.NewResponse(httpsim.StatusOK)) })
	})
	cp := tb.m.ControlPlane()
	// Sheds are deliberate fast-fails; retrying them re-amplifies load.
	cp.SetRetryPolicy("frontend", RetryPolicy{})
	cp.SetAdmissionPolicy("frontend", AdmissionPolicy{
		Enabled:            true,
		InitialConcurrency: 1,
		MaxConcurrency:     1,
		QueueLimit:         2,
		QueueTarget:        time.Second, // delay law out of the way
	})

	codes := map[int]int{}
	for i := 0; i < 10; i++ {
		tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
			if err != nil {
				t.Fatal(err)
			}
			codes[r.Status]++
		})
	}
	tb.sched.Run()

	// 1 inflight + 2 queued survive; the rest shed as queue-full.
	if codes[httpsim.StatusOK] != 3 || codes[httpsim.StatusServiceUnavailable] != 7 {
		t.Fatalf("codes = %v, want 3x200 7x503", codes)
	}
	shed := tb.m.Metrics().Counter("mesh_admission_shed_total",
		metrics.Labels{"service": "frontend", "class": "ls", "reason": "queue_full"}).Value()
	if shed != 7 {
		t.Fatalf("shed counter = %d, want 7", shed)
	}
}

func TestAdmissionLSDisplacesQueuedLI(t *testing.T) {
	tb := buildBed(t, Config{SidecarDelayMean: -1}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		pod.Exec(50*time.Millisecond, func() { respond(httpsim.NewResponse(httpsim.StatusOK)) })
	})
	cp := tb.m.ControlPlane()
	cp.SetRetryPolicy("frontend", RetryPolicy{})
	cp.SetAdmissionPolicy("frontend", AdmissionPolicy{
		Enabled:            true,
		InitialConcurrency: 1,
		MaxConcurrency:     1,
		QueueLimit:         1,
		QueueTarget:        time.Second,
	})

	serve := func(at time.Duration, prio string, got map[string]int) {
		tb.sched.At(at, func() {
			r := extReq("/x")
			if prio != "" {
				r.Headers.Set(HeaderPriority, prio)
			}
			tb.gw.Serve(r, func(resp *httpsim.Response, err error) {
				if err != nil {
					t.Fatal(err)
				}
				got[prio+":"+strconv.Itoa(resp.Status)]++
			})
		})
	}
	got := map[string]int{}
	serve(0, PriorityLow, got)                   // dispatched (slot free)
	serve(1*time.Millisecond, PriorityLow, got)  // queued
	serve(2*time.Millisecond, PriorityHigh, got) // full: displaces the queued LI
	tb.sched.Run()

	if got["low:200"] != 1 || got["low:503"] != 1 || got["high:200"] != 1 {
		t.Fatalf("got = %v; want the queued LI displaced by the LS arrival", got)
	}
}

func TestDeadlineCancelsChildCall(t *testing.T) {
	backendSaw := 0
	tb := buildBed(t, Config{SidecarDelayMean: -1}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		backendSaw++
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	// Frontend burns 10ms before calling backend; the 5ms budget is
	// spent by then, so the sidecar cancels the child call locally.
	tb.fe.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		tb.sched.After(10*time.Millisecond, func() {
			child := httpsim.NewRequest("GET", req.Path)
			child.Headers.Set(HeaderHost, "backend")
			child.Headers.Set(trace.HeaderRequestID, req.Headers.Get(trace.HeaderRequestID))
			tb.fe.Call(child, func(resp *httpsim.Response, err error) {
				if err != nil {
					respond(httpsim.NewResponse(httpsim.StatusBadGateway))
					return
				}
				respond(resp.Clone())
			})
		})
	})
	// No retries: a deadline 504 would otherwise be retried by the
	// gateway, re-running the cancel.
	tb.m.ControlPlane().SetRetryPolicy("frontend", RetryPolicy{})
	tb.m.ControlPlane().SetAdmissionPolicy("frontend", AdmissionPolicy{Budget: 5 * time.Millisecond})

	var status int
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		status = r.Status
	})
	tb.sched.Run()

	if status != httpsim.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if backendSaw != 0 {
		t.Fatalf("backend saw %d requests; the cancelled call must never leave the sidecar", backendSaw)
	}
	cancelled := tb.m.Metrics().Counter("mesh_admission_cancelled_total",
		metrics.Labels{"service": "frontend", "upstream": "backend"}).Value()
	if cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1", cancelled)
	}
}

func TestBudgetDecrementsAcrossHops(t *testing.T) {
	var backendBudget string
	tb := buildBed(t, Config{}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		backendBudget = req.Headers.Get(HeaderBudget)
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	budget := 500 * time.Millisecond
	tb.m.ControlPlane().SetAdmissionPolicy("frontend", AdmissionPolicy{Budget: budget})

	var status int
	tb.gw.Serve(extReq("/x"), func(r *httpsim.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		status = r.Status
	})
	tb.sched.Run()

	if status != httpsim.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if backendBudget == "" {
		t.Fatal("backend saw no budget header")
	}
	us, err := strconv.ParseInt(backendBudget, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if us <= 0 || us >= budget.Microseconds() {
		t.Fatalf("backend budget = %dus; want decremented below %dus but positive", us, budget.Microseconds())
	}
}

// budgeted is an inbound request of trace tid carrying budget us (µs).
func budgeted(tid string, us int64) *httpsim.Request {
	req := httpsim.NewRequest("GET", "/")
	req.Headers.Set(trace.HeaderRequestID, tid)
	req.Headers.Set(HeaderBudget, strconv.FormatInt(us, 10))
	return req
}

// TestDeadlinesObserveAndRemaining: recordInboundDeadline keeps the
// earliest expiry a trace's requests carry — a retry or hedge with a
// looser budget must not extend it, a tighter one shrinks it. A spent
// budget at time 0 is a deadline of 0, recorded like any other, while a
// budget past the end of simulated time is none.
func TestDeadlinesObserveAndRemaining(t *testing.T) {
	m, sc, _ := replicaBed(1, 1)
	ms := time.Millisecond
	if e, ok := sc.recordInboundDeadline(budgeted("t0", 0)); e != 0 || !ok {
		t.Fatalf("a zero budget at time 0: returned %v %v, want a deadline of 0", e, ok)
	}
	if e, ok := sc.admit.deadlines.Get("t0"); e != 0 || !ok {
		t.Fatalf("a zero budget at time 0: recorded %v %v, want 0", e, ok)
	}
	if e, ok := sc.recordInboundDeadline(budgeted("huge", math.MaxInt64)); ok {
		t.Fatalf("a budget past the end of time: returned a deadline %v", e)
	}
	if _, ok := sc.admit.deadlines.Get("huge"); ok {
		t.Fatal("a budget past the end of time was recorded")
	}
	if e, ok := sc.recordInboundDeadline(budgeted("t1", 100_000)); e != 100*ms || !ok {
		t.Fatalf("expiry = %v %v, want 100ms", e, ok)
	}
	m.sched.RunFor(40 * ms)
	for _, c := range []struct {
		name string
		us   int64
		want time.Duration
	}{
		{"looser budget", 500_000, 100 * ms},
		{"tighter budget", 40_000, 80 * ms},
		{"equal budget", 40_000, 80 * ms},
	} {
		if e, _ := sc.recordInboundDeadline(budgeted("t1", c.us)); e != c.want {
			t.Fatalf("%s: returned expiry %v, want %v", c.name, e, c.want)
		}
		if e, ok := sc.admit.deadlines.Get("t1"); !ok || e != c.want {
			t.Fatalf("%s: recorded expiry %v %v, want %v", c.name, e, ok, c.want)
		}
	}
	if _, ok := sc.admit.deadlines.Get("unknown"); ok {
		t.Fatal("unknown id reported a deadline")
	}
}

// TestSpentBudgetShedAtTimeZero: a request whose budget is spent,
// reaching an admission-enabled sidecar at time 0, is shed with 504 and
// counted as a deadline shed; the app never sees it.
func TestSpentBudgetShedAtTimeZero(t *testing.T) {
	served := 0
	tb := buildBed(t, Config{SidecarDelayMean: -1}, func(pod *cluster.Pod, req *httpsim.Request, respond func(*httpsim.Response)) {
		served++
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	tb.m.ControlPlane().SetAdmissionPolicy("backend", AdmissionPolicy{Enabled: true})
	var status int
	tb.b1.handleInbound(httpsim.Ctx{}, budgeted("t0", 0), func(r *httpsim.Response) { status = r.Status })
	tb.sched.Run()
	if status != httpsim.StatusGatewayTimeout || served != 0 {
		t.Fatalf("a spent budget at time 0: status %d, app served %d, want 504 and 0", status, served)
	}
	shed := tb.m.Metrics().Counter(MetricAdmissionShedTotal,
		metrics.Labels{"service": "backend", "class": "ls", "reason": "deadline"}).Value()
	if shed != 1 {
		t.Fatalf("deadline sheds = %d, want 1", shed)
	}
}

// TestDeadlinesSweepExpired: a sidecar's deadline record is dropped by
// the table's sweep once deadlineGrace past its expiry, while records
// still in their budget stay.
func TestDeadlinesSweepExpired(t *testing.T) {
	m, sc, _ := replicaBed(1, 1)
	sc.recordInboundDeadline(budgeted("old", 1_000))
	m.sched.RunFor(time.Millisecond + deadlineGrace)
	if _, ok := sc.admit.deadlines.Get("old"); !ok {
		t.Fatal("the record went before any sweep")
	}
	m.sched.RunFor(time.Millisecond)
	for i := 0; i < 256; i++ {
		sc.recordInboundDeadline(budgeted(fmt.Sprintf("t%d", i), 1_000_000))
	}
	if _, ok := sc.admit.deadlines.Get("old"); ok {
		t.Fatal("expired record survived the sweep")
	}
	if got := sc.admit.deadlines.Len(); got != 256 {
		t.Fatalf("%d records after the sweep, want the 256 live ones", got)
	}
}
