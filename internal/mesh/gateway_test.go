package mesh

import (
	"testing"

	"meshlayer/internal/httpsim"
)

func TestPathClassifierLongestPrefixWins(t *testing.T) {
	c := PathClassifier(map[string]string{
		"/api":       PriorityLow,
		"/api/users": PriorityHigh,
	}, "")
	req := httpsim.NewRequest("GET", "/api/users/42")
	c(req)
	if got := req.Headers.Get(HeaderPriority); got != PriorityHigh {
		t.Fatalf("priority = %q, want high (longest prefix)", got)
	}
	req2 := httpsim.NewRequest("GET", "/api/batch")
	c(req2)
	if got := req2.Headers.Get(HeaderPriority); got != PriorityLow {
		t.Fatalf("priority = %q, want low", got)
	}
	req3 := httpsim.NewRequest("GET", "/other")
	c(req3)
	if req3.Headers.Has(HeaderPriority) {
		t.Fatal("unmatched path got a priority with empty default")
	}
}

func TestGatewayAssignsUniqueTraceIDs(t *testing.T) {
	tb := buildBed(t, Config{}, echoBackend)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		req := extReq("/x")
		tb.gw.Serve(req, func(*httpsim.Response, error) {})
		id := req.Headers.Get("x-request-id")
		if id == "" || seen[id] {
			t.Fatalf("trace id %q missing or duplicated", id)
		}
		seen[id] = true
	}
	tb.sched.Run()
}
