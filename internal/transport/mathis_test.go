package transport

import (
	"math"
	"slices"
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// TestMathisConformance holds Reno and Cubic to the Mathis model of
// loss-limited throughput (Mathis, Semke, Mahdavi and Ott, "The
// Macroscopic Behavior of the TCP Congestion Avoidance Algorithm", CCR
// 1997): under Bernoulli loss p, a bulk sender's goodput is about
// 1.22·MSS/(RTT·√p). One sender on 1 Gbps with 5 ms each way and a 4 MB
// queue (far above every window the loss rates allow, so the RTT stays
// the propagation RTT) has 20,000 64 KB messages queued up front and
// runs 20 s with loss on the forward direction only. The median over
// seeds 1–5 of goodput over the model must lie in [0.7, 1.3]; single
// seeds stray further, and shorter runs put Cubic at p = 0.05 % above
// the band.
func TestMathisConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("40 simulated 20 s runs")
	}
	const (
		rtt      = 10 * time.Millisecond
		duration = 20 * time.Second
		msgs     = 20_000
		msgBytes = 64 << 10
	)
	for _, cc := range []string{"reno", "cubic"} {
		for _, p := range []float64{0.0005, 0.002, 0.01, 0.03} {
			model := 1.22 * MSS / (rtt.Seconds() * math.Sqrt(p)) // bytes/s
			var ratios []float64
			for seed := int64(1); seed <= 5; seed++ {
				pr := newPair(t, simnet.LinkConfig{Rate: simnet.Gbps, Delay: rtt / 2, QueueBytes: 4 << 20})
				pr.ha.Node().NICs()[0].Impair(simnet.Impairment{LossProb: p, Seed: seed})
				delivered := 0
				pr.hb.Listen(80, func(c *Conn) {
					c.SetOnMessage(func(_ any, size int) { delivered += size })
				})
				c := pr.ha.Dial(pr.hb.Node().Addr(), 80, Options{CC: cc})
				for i := 0; i < msgs; i++ {
					c.SendMessage(nil, msgBytes)
				}
				pr.sched.RunUntil(duration)
				if delivered == msgs*msgBytes {
					t.Fatalf("%s p=%v seed %d: every message delivered; queue more to stay loss-limited", cc, p, seed)
				}
				ratios = append(ratios, float64(delivered)/duration.Seconds()/model)
			}
			slices.Sort(ratios)
			med := ratios[len(ratios)/2]
			t.Logf("%s p=%v%%: median goodput/model %.2f, seeds %.2f", cc, p*100, med, ratios)
			if med < 0.7 || med > 1.3 {
				t.Errorf("%s p=%v%%: median goodput/model %.2f, want [0.7, 1.3]", cc, p*100, med)
			}
		}
	}
}
