package httpsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// TestDoWithinFiresOnce: DoWithin's callback fires exactly once — with
// the reply, ErrTimeout, or the connection's error — and once it has,
// no deadline event is left armed, no call is left pending, and the
// call's record holds nothing: a record back in the pool that kept its
// callback would keep alive what the callback captured, and a stale
// deadline or reply could fire it for a call that already settled.
//
// Paths starting /now are answered at once; the server holds the
// respond of any other path in held.
func TestDoWithinFiresOnce(t *testing.T) {
	const hold = 10 * time.Second // a deadline no row reaches
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, e *env, cl *Client, do func(path string, timeout time.Duration), held map[string]func(*Response))
		want []string
	}{
		{
			name: "a reply before its deadline",
			run: func(_ *testing.T, e *env, _ *Client, do func(string, time.Duration), _ map[string]func(*Response)) {
				do("/now", hold)
				e.sched.RunFor(time.Second)
			},
			want: []string{"/now 200"},
		},
		{
			name: "the deadline passes, then the late reply is dropped",
			run: func(_ *testing.T, e *env, _ *Client, do func(string, time.Duration), held map[string]func(*Response)) {
				do("/slow", 20*time.Millisecond)
				e.sched.RunFor(time.Second)
				held["/slow"](NewResponse(StatusOK))
				e.sched.RunFor(time.Second)
			},
			want: []string{"/slow " + ErrTimeout.Error()},
		},
		{
			name: "Abort fails three pending calls in issue order",
			run: func(_ *testing.T, e *env, cl *Client, do func(string, time.Duration), _ map[string]func(*Response)) {
				do("/a", hold)
				do("/b", hold+time.Second)
				do("/c", hold-time.Second)
				e.sched.RunFor(time.Second)
				cl.Conn().Abort()
				e.sched.RunFor(time.Second)
			},
			want: []string{
				"/a " + transport.ErrReset.Error(),
				"/b " + transport.ErrReset.Error(),
				"/c " + transport.ErrReset.Error(),
			},
		},
		{
			name: "a closed client fails the call at once",
			run: func(_ *testing.T, e *env, cl *Client, do func(string, time.Duration), _ map[string]func(*Response)) {
				e.sched.RunFor(time.Second)
				cl.Conn().Abort()
				do("/now", hold)
				e.sched.RunFor(time.Second)
			},
			want: []string{"/now " + ErrConnClosed.Error()},
		},
		{
			name: "a timeout of 0 arms no deadline",
			run: func(t *testing.T, e *env, _ *Client, do func(string, time.Duration), held map[string]func(*Response)) {
				do("/slow", 0)
				e.sched.RunFor(time.Second)
				if n := e.sched.Pending(); n != 0 {
					t.Fatalf("%d events pending while the call waits with no deadline", n)
				}
				held["/slow"](NewResponse(StatusOK))
				e.sched.RunFor(time.Second)
			},
			want: []string{"/slow 200"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Millisecond})
			held := map[string]func(*Response){}
			NewServer(e.hb, 8080, func(_ Ctx, req *Request, respond func(*Response)) {
				if strings.HasPrefix(req.Path, "/now") {
					respond(NewResponse(StatusOK))
					return
				}
				held[req.Path] = respond
			})
			cl := NewClient(e.ha, e.hb.Node().Addr(), 8080, transport.Options{})
			var got []string
			var records []*pendingCall
			do := func(path string, timeout time.Duration) {
				n := len(cl.pending)
				cl.DoWithin(NewRequest("GET", path), timeout, func(r *Response, err error) {
					if err != nil {
						got = append(got, path+" "+err.Error())
						return
					}
					got = append(got, fmt.Sprintf("%s %d", path, r.Status))
				})
				if len(cl.pending) > n {
					records = append(records, cl.pending[n])
				}
			}
			tc.run(t, e, cl, do, held)

			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("callbacks fired %q, want %q", got, tc.want)
			}
			if n := e.sched.Pending(); n != 0 {
				t.Errorf("%d events pending once every call has settled: a deadline was left armed", n)
			}
			if len(cl.pending) != 0 {
				t.Errorf("%d calls still pending once every callback fired", len(cl.pending))
			}
			for i, p := range records {
				if p.c != nil || p.id != 0 || p.cb != nil || p.deadline != (simnet.Timer{}) {
					t.Errorf("record of call %d was not reset when it was released: %+v", i, *p)
				}
				if p.expire == nil {
					t.Errorf("record of call %d lost its bound deadline method", i)
				}
			}
		})
	}
}
