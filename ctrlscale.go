package meshlayer

import (
	"fmt"
	"strings"
	"time"

	"meshlayer/internal/chaos"
	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
	"meshlayer/internal/workload"
)

// ---------- E21: control-plane survivability at 10k subscribers ----------
//
// E21 is ROADMAP item 2 at the paper-scale rung: 10,000 worker
// sidecars subscribed to one distributing control plane, simulated
// under hybrid fidelity so the full-state resync pushes (hundreds of
// KB each, >= transport.FluidCutover) ride the PR 8 fluid fast path.
// The scenario is the one that kills real control planes: a rolling
// deploy storm across the whole fleet with a control-plane crash in
// the middle of it. While the control plane is down, sidecars route on
// their last-good snapshots (static stability) — availability must not
// collapse. When it recovers, every subscriber needs a full resync at
// once, and the defense ladder decides whether that storm converges or
// thrashes:
//
//	L0  fixed resync delay, unlimited fan-out — every desynced
//	    subscriber retries at the same instant, all sharing the CP
//	    egress link, so every transfer exceeds the push timeout and
//	    the stampede repeats forever;
//	L1  +exponential backoff with deterministic per-subscriber jitter
//	    (retries spread out; some waves partially succeed);
//	L2  +MaxInflightPushes backpressure (oldest-lag-first admission
//	    keeps each transfer fast enough to beat the timeout);
//	L3  +MaxConcurrentResyncs admission window (bounds concurrent
//	    full resyncs themselves; peak state is bounded too).
//
// The control-plane egress link is provisioned so a whole-fleet resync
// takes ~4 s of line rate — twice the push timeout. That ratio is the
// experiment's physics: an uncoordinated stampede divides the link
// 10k ways and nothing finishes; paced pushes finish two orders of
// magnitude faster than the timeout.

const (
	// CtrlScaleSubs is the default worker-sidecar count (meshbench
	// -subs overrides; the smoke runs 1000).
	CtrlScaleSubs = 10000
	// ctrlScalePodsPerShard is each worker service's replica count; the
	// shard count is subs/ctrlScalePodsPerShard.
	ctrlScalePodsPerShard = 20
	// ctrlScaleFrontends is the frontend replica count: the tier whose
	// snapshot staleness decides whether requests keep dialing killed
	// worker pods.
	ctrlScaleFrontends = 8
)

// CtrlScaleRow is one defense-ladder rung measured under the deploy
// storm + mid-storm control-plane crash.
type CtrlScaleRow struct {
	Config string
	Subs   int

	// Recovered reports whether every subscriber completed its
	// post-crash resync within the run; RecoveredIn is the time from
	// control-plane restart to full convergence.
	Recovered   bool
	RecoveredIn time.Duration

	// Avail is served/total over the whole measured window; StormAvail
	// over the deploy storm; TailAvail from the crash to the end of the
	// storm — the window where stale snapshots meet ongoing restarts.
	Avail, StormAvail, TailAvail float64
	// ReqP99 is the end-to-end request latency p99.
	ReqP99 time.Duration

	// Control-plane cost: pushes by kind, total wire bytes, push
	// timeouts, full resyncs and their bytes, config staleness p99, the
	// widest version gap, and the concurrency high-water marks.
	DeltaPushes, FullPushes   uint64
	WireBytes                 uint64
	Timeouts                  uint64
	Resyncs                   uint64
	ResyncBytes               uint64
	StaleP99                  time.Duration
	MaxLag                    uint64
	PeakInflight, PeakResyncs int
	Crashes                   uint64
}

// ctrlScaleDefense is one rung of the ladder.
type ctrlScaleDefense struct {
	name     string
	backoff  bool // exponential backoff + deterministic jitter
	inflight int  // MaxInflightPushes (0 = unlimited)
	resyncs  int  // MaxConcurrentResyncs (0 = unlimited)
}

// ctrlScaleLadder is E21's defense ladder, one row per rung.
var ctrlScaleLadder = []ctrlScaleDefense{
	{name: "L0: none (fixed resync, unlimited fan-out)"},
	{name: "L1: +backoff+jitter", backoff: true},
	{name: "L2: +push backpressure (256 in flight)", backoff: true, inflight: 256},
	{name: "L3: +resync admission (64 slots)", backoff: true, inflight: 256, resyncs: 64},
}

// RunCtrlScale measures the defense ladder at the given fleet size under
// hybrid fidelity. subs <= 0 selects the full 10k; warmup/measure <= 0
// select 2s/30s.
func RunCtrlScale(seed int64, subs int, warmup, measure time.Duration) []CtrlScaleRow {
	subs = orDefault(subs, CtrlScaleSubs)
	warmup, measure = orDefault(warmup, 2*time.Second), orDefault(measure, 30*time.Second)
	return sweepRows(len(ctrlScaleLadder), func(i int) CtrlScaleRow {
		return runCtrlScaleOnce(simnet.FidelityHybrid, ctrlScaleLadder[i], subs, seed, warmup, measure)
	})
}

func runCtrlScaleOnce(fid simnet.Fidelity, def ctrlScaleDefense, subs int, seed int64, warmup, measure time.Duration) CtrlScaleRow {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	net.SetFidelity(fid)
	cl := cluster.New(net)

	shards := subs / ctrlScalePodsPerShard
	if shards < 1 {
		shards = 1
	}
	shardSvc := func(k int) string { return fmt.Sprintf("w%03d", k) }

	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	m := mesh.New(cl, mesh.Config{Seed: seed})
	gw := m.NewGateway(gwPod)

	// Frontend tier: routes /s/<k> to worker shard w<k>. Its snapshots
	// are the ones that matter for availability — a frontend on a stale
	// endpoint list keeps dialing a killed worker.
	for i := 0; i < ctrlScaleFrontends; i++ {
		pod := cl.AddPod(cluster.PodSpec{
			Name:    fmt.Sprintf("frontend-%d", i),
			Labels:  map[string]string{"app": "frontend"},
			Workers: 8,
		})
		sc := m.InjectSidecar(pod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			target := "w" + strings.TrimPrefix(req.Path, "/s/")
			pod.Exec(time.Millisecond, func() {
				child := httpsim.NewRequest("GET", req.Path)
				child.Headers.Set(mesh.HeaderHost, target)
				sc.Call(child, func(resp *httpsim.Response, err error) {
					if err != nil {
						respond(httpsim.NewResponse(httpsim.StatusBadGateway))
						return
					}
					out := httpsim.NewResponse(resp.Status)
					out.BodyBytes = 512
					respond(out)
				})
			})
		})
	}
	cl.AddService("frontend", 9080, map[string]string{"app": "frontend"})

	// Worker fleet: shards of ctrlScalePodsPerShard replicas. Every
	// worker sidecar subscribes to the control plane — these are the
	// 10k subscribers.
	for k := 0; k < shards; k++ {
		svc := shardSvc(k)
		for i := 0; i < ctrlScalePodsPerShard; i++ {
			pod := cl.AddPod(cluster.PodSpec{
				Name:   fmt.Sprintf("%s-%d", svc, i),
				Labels: map[string]string{"app": svc},
			})
			sc := m.InjectSidecar(pod)
			sc.RegisterApp(func(_ *httpsim.Request, respond func(*httpsim.Response)) {
				pod.Exec(2*time.Millisecond, func() {
					out := httpsim.NewResponse(httpsim.StatusOK)
					out.BodyBytes = 2 << 10
					respond(out)
				})
			})
		}
		cl.AddService(svc, 9080, map[string]string{"app": svc})
	}

	// Single attempts with a bounded per-try timeout: a dial to a
	// killed pod is a visible failure, not a retried one — snapshot
	// staleness is exactly what availability measures (the E18 logic).
	cp := m.ControlPlane()
	cp.SetRetryPolicy("frontend", mesh.RetryPolicy{PerTryTimeout: time.Second})
	for k := 0; k < shards; k++ {
		cp.SetRetryPolicy(shardSvc(k), mesh.RetryPolicy{PerTryTimeout: 500 * time.Millisecond})
	}

	// Provision the control-plane egress so one whole-fleet full-state
	// resync takes ~4 s of line rate — 2x the push timeout. The ladder
	// decides whether that capacity is used or thrashed.
	nSubs := subs + ctrlScaleFrontends + 1
	fullBytes := 64 + // update header
		shards*(24+48+24*ctrlScalePodsPerShard+40) + // worker resources (+retry policy)
		(24 + 48 + 24*ctrlScaleFrontends + 40) // frontend resource
	cpRate := int64(fullBytes) * int64(nSubs) * 8 / 4
	if cpRate < simnet.Mbps {
		cpRate = simnet.Mbps
	}

	dc := mesh.DistributionConfig{
		Debounce:      200 * time.Millisecond,
		PushTimeout:   2 * time.Second,
		ResyncDelay:   500 * time.Millisecond,
		GateReadiness: true,
		Link:          simnet.LinkConfig{Rate: cpRate, Delay: 100 * time.Microsecond},
	}
	if def.backoff {
		dc.ResyncMax = 8 * time.Second
		dc.ResyncJitter = 1.0
	}
	dc.MaxInflightPushes = def.inflight
	dc.MaxConcurrentResyncs = def.resyncs
	cp.EnableDistribution(dc)

	// The deploy storm: replica 1 of every shard restarts once —
	// drained, killed, back, and re-subscribed (a fresh proxy process)
	// — staggered across the storm window. The control plane crashes a
	// quarter of the way in and recovers mid-storm, so the storm's tail
	// runs against a control plane that is busy resyncing the world.
	stormAt := warmup + measure/10
	stormLen := measure / 2
	crashAt := stormAt + stormLen/4
	outage := measure / 6
	recoverAt := crashAt + outage
	stormEnd := stormAt + stormLen
	downFor := time.Second
	stagger := stormLen / time.Duration(shards)
	events := make([]chaos.Event, 0, shards+1)
	for k := 0; k < shards; k++ {
		events = append(events, chaos.Event{
			At: stormAt + time.Duration(k)*stagger, Duration: downFor,
			Fault: chaos.Restart{Pod: shardSvc(k) + "-1", Grace: 200 * time.Millisecond, Resubscribe: true},
		})
	}
	events = append(events, chaos.Event{At: crashAt, Duration: outage, Fault: chaos.ControlPlaneCrash{}})
	eng := chaos.NewEngine(&chaos.Target{Sched: sched, Cluster: cl, Mesh: m})
	eng.Schedule(chaos.Scenario{Name: "e21-ctrl-crash", Events: events})

	// Convergence probe: after the control plane restarts, poll until
	// every subscriber has completed its resync.
	srv := cp.Distribution()
	recoveredAt := time.Duration(-1)
	horizon := warmup + measure
	var probe func()
	probe = func() {
		if srv.UnsyncedCount() == 0 {
			recoveredAt = sched.Now()
			return
		}
		if sched.Now() >= horizon {
			return
		}
		sched.After(100*time.Millisecond, probe)
	}
	sched.After(recoverAt+100*time.Millisecond, probe)

	rec := workload.NewTimeline(0, measure/40)
	reqN := 0
	g := workload.Start(sched, gw, workload.Spec{
		Name: "ctrlscale", Rate: 100, Seed: seed + 11,
		NewRequest: func() *httpsim.Request {
			k := reqN % shards
			reqN++
			r := httpsim.NewRequest("GET", fmt.Sprintf("/s/%03d", k))
			r.Headers.Set(mesh.HeaderHost, "frontend")
			return r
		},
		Warmup: warmup, Measure: measure, Cooldown: time.Second,
		OnComplete: rec.Observe,
	})
	sched.RunFor(warmup + measure + 3*time.Second)

	avail := func(from, to time.Duration) float64 { return availability(from, to, rec) }
	st := srv.Stats()
	row := CtrlScaleRow{
		Config:       def.name,
		Subs:         subs,
		Recovered:    recoveredAt >= 0,
		Avail:        avail(warmup, warmup+measure),
		StormAvail:   avail(stormAt, stormEnd),
		TailAvail:    avail(crashAt, stormEnd),
		ReqP99:       g.Results().P99(),
		DeltaPushes:  st.DeltaPushes,
		FullPushes:   st.FullPushes,
		WireBytes:    st.WireBytes,
		Timeouts:     st.Timeouts,
		Resyncs:      st.Resyncs,
		ResyncBytes:  st.ResyncBytes,
		MaxLag:       st.MaxLag,
		PeakInflight: st.PeakInflight,
		PeakResyncs:  st.PeakResyncs,
		Crashes:      st.Crashes,
		StaleP99:     staleP99(m.Metrics()),
	}
	if row.Recovered {
		row.RecoveredIn = recoveredAt - recoverAt
	}
	return row
}

// FormatCtrlScale renders the E21 table.
func FormatCtrlScale(rows []CtrlScaleRow) string {
	t := newTable("defense ladder", "recovery", "avail", "storm avail", "tail avail",
		"req p99", "pushes (Δ/full)", "resyncs", "resync MB", "timeouts",
		"peak infl", "peak rsync", "stale p99", "max lag")
	for _, r := range rows {
		recovery := "DNF"
		if r.Recovered {
			recovery = ms(r.RecoveredIn)
		}
		t.row(r.Config, recovery,
			fmt.Sprintf("%.2f%%", 100*r.Avail),
			fmt.Sprintf("%.2f%%", 100*r.StormAvail),
			fmt.Sprintf("%.2f%%", 100*r.TailAvail),
			ms(r.ReqP99),
			fmt.Sprintf("%d/%d", r.DeltaPushes, r.FullPushes),
			fmt.Sprint(r.Resyncs),
			fmt.Sprintf("%.1f", float64(r.ResyncBytes)/(1<<20)),
			fmt.Sprint(r.Timeouts),
			fmt.Sprint(r.PeakInflight),
			fmt.Sprint(r.PeakResyncs),
			ms(r.StaleP99),
			fmt.Sprint(r.MaxLag))
	}
	subs := 0
	if len(rows) > 0 {
		subs = rows[0].Subs
	}
	return fmt.Sprintf("E21 — control-plane crash + deploy storm at %d subscribers (hybrid fidelity, 100 RPS, mid-storm crash)\n", subs) +
		t.String()
}
