package transport

import (
	"math"
	"testing"
	"time"
)

// TestCubicFollowsRFC8312Curve holds Cubic to its closed form: after a
// loss at W_max with no competitor, the window is
// W(t) = C(t−K)³ + W_max segments, K = ∛(W_max(1−β)/C), with β = 0.7
// and C = 0.4 (RFC 8312 §4.1, §4.5). A fake clock advances through
// RTTs of 100 ms in which one window of ACKs arrives, evenly spaced;
// the window is read at the end of each RTT out to 2K, through the
// concave approach to W_max and the convex probe past it. At 100 ms
// the TCP-friendly estimate stays below the curve, so the cubic term
// alone sets the window.
//
// The tolerance comes from a reading: the window lags the curve by
// about one RTT's growth (the per-ACK increase aims at W(t), where RFC
// 8312 §4.1 aims at W(t+RTT)), so the worst relative error, 1.24 % at
// t = 0.4 s with W_max 1,000 segments, falls where the curve is
// steepest relative to the window. The bound is 2 %. With β = 0.8 the
// window reads 13 % above the curve after the first RTT; with C = 0.3
// it reads 10 % below it at 2K.
func TestCubicFollowsRFC8312Curve(t *testing.T) {
	const (
		rtt  = 100 * time.Millisecond
		tol  = 0.02
		beta = 0.7
		c    = 0.4
	)
	var now time.Duration
	cc := NewCubic(func() time.Duration { return now })
	// Slow start to W_max at a constant RTT, which never trips the
	// delay-based exit.
	for cc.Window() < 1000*MSS {
		cc.OnAck(MSS, rtt)
	}
	wMax := float64(cc.Window()) / MSS
	lossAt := now
	cc.OnLoss()
	k := math.Cbrt(wMax * (1 - beta) / c)

	worst, worstAt := 0.0, 0.0
	for {
		acks := cc.Window() / MSS
		start := now
		for i := 1; i <= acks; i++ {
			now = start + rtt*time.Duration(i)/time.Duration(acks)
			cc.OnAck(MSS, rtt)
		}
		el := (now - lossAt).Seconds()
		if el > 2*k {
			break
		}
		want := c*math.Pow(el-k, 3) + wMax
		got := float64(cc.Window()) / MSS
		if e := math.Abs(got-want) / want; e > worst {
			worst, worstAt = e, el
		}
	}
	t.Logf("W_max %.0f segments, K %.2f s: worst relative error %.4f at t = %.2f s", wMax, k, worst, worstAt)
	if worst > tol {
		t.Fatalf("window strays %.2f %% from W(t) = C(t-K)^3 + W_max at t = %.2f s (K = %.2f s), bound %.1f %%",
			100*worst, worstAt, k, 100*tol)
	}
}
