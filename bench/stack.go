package main

// stack.go is the benchmark's one adapter to the simulator: every
// import of a repo package lives here, so a PR that renames or
// collapses an API (ROADMAP item 3) re-points this file and nothing
// else. README.md lists the pinned symbols. The file holds the four
// scenario builders, the accessor reads behind the per-layer work
// counts, and the unit-cost ladder rungs.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"meshlayer"
	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/cluster"
	"meshlayer/internal/ctrlplane"
	"meshlayer/internal/hdr"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
	"meshlayer/internal/tc"
	"meshlayer/internal/trace"
	"meshlayer/internal/transport"
	"meshlayer/internal/workload"
)

// sizes fixes every workload's shape. The full sizes are the ones
// BENCHMARK.json's bounds were measured at; quick is for tests.
type sizes struct {
	mixedRPS                 float64
	mixedWarmup, mixedWindow time.Duration
	chainUsers               int
	chainWarmReqs, chainReqs int // per virtual user
	fanZones, fanPodsPerZone int
	stormSubs                int
	stormInflight            int // MaxInflightPushes
	stormResyncs             int // MaxConcurrentResyncs
	stormWarmup, stormWindow time.Duration
}

var fullSizes = sizes{
	// 40 RPS per class, the rate the repo's own ablations run at, not the
	// sweep's top rate of 50: at 45 and 50 the LI class is metastable, and
	// on one seed in six to ten it falls into a multi-second backlog it
	// cannot drain (README.md). 28 s, not the paper run's 20 s: at 40 RPS
	// that is >= 1000 samples per class on every seed, the least the p99
	// rule accepts.
	mixedRPS: 40, mixedWarmup: 2 * time.Second, mixedWindow: 28 * time.Second,
	chainUsers: 4, chainWarmReqs: 125, chainReqs: 1250,
	fanZones: 40, fanPodsPerZone: 100,
	stormSubs: 1500, stormInflight: 256, stormResyncs: 64,
	stormWarmup: time.Second, stormWindow: 12 * time.Second,
}

var quickSizes = sizes{
	mixedRPS: 10, mixedWarmup: time.Second / 2, mixedWindow: 2 * time.Second,
	chainUsers: 4, chainWarmReqs: 10, chainReqs: 50,
	fanZones: 4, fanPodsPerZone: 100,
	// The defence ladder paces pushes against the fleet size, so a
	// fleet fifteen times smaller gets windows fifteen times smaller.
	stormSubs: 100, stormInflight: 16, stormResyncs: 4,
	stormWarmup: time.Second, stormWindow: 12 * time.Second,
}

const (
	mixedCooldown = time.Second
	mixedDrain    = 2 * time.Second
	chainDepth    = 16
	chainThink    = time.Millisecond
	fanBaseBytes  = 128 << 10
	fanSpanBytes  = 256 << 10 // sizes are uniform in [base, base+span)
	stormRPS      = 100
	stormDrain    = 3 * time.Second
)

// summariseHist is summarise for a distribution only the program's
// own histogram holds (config staleness): bucket resolution, ~1.6 %.
func summariseHist(h *hdr.Histogram) latencies {
	q := tailQuantile(h.Count())
	return latencies{n: h.Count(), p50: h.QuantileDuration(0.50), p99: h.QuantileDuration(q), tailQ: q}
}

// inWindow returns an OnComplete observer that keeps the latency of
// every successful request issued inside the generator's measure
// window, the population workload.Results' histogram holds, as exact
// samples. Generators here start at simulated time zero.
func inWindow(warmup, window time.Duration, keep *[]time.Duration, also func(failed bool)) func(at, latency time.Duration, failed bool) {
	return func(at, latency time.Duration, failed bool) {
		if issued := at - latency; !failed && issued >= warmup && issued < warmup+window {
			*keep = append(*keep, latency)
		}
		if also != nil {
			also(failed)
		}
	}
}

// outcome is what one rep's measure phase produced, read through the
// layers' accessors after the drain.
type outcome struct {
	// ops is the per-op denominator (README: op definition per
	// workload); attempted and failed feed sim_fail_share.
	ops, attempted, failed uint64
	primary, background    latencies
	// classCounts and the check strings are workload-specific: counts
	// enter the digest, a non-empty problem fails the run.
	classCounts []uint64
	problems    []string
}

// scenario is one built and warmed-up instance of a workload.
type scenario struct {
	sched   *simnet.Scheduler
	net     *simnet.Network
	cluster *cluster.Cluster
	mesh    *mesh.Mesh // nil where the workload runs below the mesh

	// measure runs the simulated measure window and the drain; outcome
	// reads the result afterwards.
	measure func()
	outcome func() outcome

	// Optional handles for the traced rep's work counts.
	bottleneck  *simnet.NIC       // the paper's 1 Gbps ratings uplink
	conns       []*transport.Conn // connections bench/ itself dialled
	services    []string          // mesh services, for the hop histogram
	convergeMS  func() float64    // control-plane restart -> all synced
	lsPath      string            // root-span name suffix of the primary class
	qwaitHi     *hdr.Histogram
	qwaitLo     *hdr.Histogram
	measureFrom time.Duration // simulated time the measure phase began
}

// linkBytes sums bytes serialised on every NIC: part of the digest.
func (sc *scenario) linkBytes() uint64 {
	var b uint64
	for _, l := range sc.net.Links() {
		b += l.A().TxBytes() + l.B().TxBytes()
	}
	return b
}

// workloadDef names a workload and builds it. build does everything
// the setup_s phase times: topology, sidecars, policies, fault script,
// and the simulated warm-up.
type workloadDef struct {
	name, why string
	build     func(seed int64, sz sizes) *scenario
}

var workloads = []workloadDef{
	{"mixed_paper", "paper 4.3 mixed LS/LI run, optimised arm, packet fidelity: simnet link+scheduler, bulk transport and the tc qdisc do the work", buildMixedPaper},
	{"rpc_chain", "16-hop closed-loop RPC chain, 2 KB bodies, no contention: sidecar, httpsim, small-message transport and the allocator do the work", buildRPCChain},
	{"bulk_fanin", "40 zones x 100 pods fluid fan-in with seeded sizes, no mesh: the FlowEngine max-min recompute does the work, pod build shows in setup_s", buildBulkFanin},
	{"ctrl_storm", "1500-subscriber rolling restart with a mid-storm control-plane crash: ctrlplane, mesh distributor and cluster topology churn do the work", buildCtrlStorm},
}

// ---------- mixed_paper ----------

func buildMixedPaper(seed int64, sz sizes) *scenario {
	return buildMixed(seed, sz, meshlayer.PaperOptimizations())
}

// buildMixedBaseline is the same run with no optimisation: the traced
// run's reference arm for core.ls_p99_gain_x and core.li_p99_cost_pct.
func buildMixedBaseline(seed int64, sz sizes) *scenario {
	return buildMixed(seed, sz, meshlayer.None())
}

func buildMixed(seed int64, sz sizes, opt meshlayer.Optimization) *scenario {
	s := meshlayer.NewScenario(meshlayer.ScenarioConfig{Opt: opt, Seed: seed})
	e := s.App
	var done uint64 // successful completions, all phases
	var lsLat, liLat []time.Duration
	spec := func(name string, newReq func() *httpsim.Request, wseed int64, keep *[]time.Duration) workload.Spec {
		return workload.Spec{
			Name: name, Rate: sz.mixedRPS, NewRequest: newReq, Seed: wseed,
			Warmup: sz.mixedWarmup, Measure: sz.mixedWindow, Cooldown: mixedCooldown,
			OnComplete: inWindow(sz.mixedWarmup, sz.mixedWindow, keep, func(failed bool) {
				if !failed {
					done++
				}
			}),
		}
	}
	// The two generators RunMixed builds, with its seed derivation;
	// driven through RunFor here so warm-up and measure time apart.
	ls := workload.Start(e.Sched, e.Gateway, spec("latency-sensitive", app.NewProductRequest, seed*2+1, &lsLat))
	li := workload.Start(e.Sched, e.Gateway, spec("latency-insensitive", app.NewAnalyticsRequest, seed*2+2, &liLat))
	s.RunFor(sz.mixedWarmup)

	done0 := done
	issued0 := ls.Results().Issued + li.Results().Issued
	errors0 := ls.Results().Errors + li.Results().Errors
	sc := &scenario{
		sched: e.Sched, net: e.Net, cluster: e.Cluster, mesh: e.Mesh,
		bottleneck: e.Ratings.NIC(),
		services:   []string{"frontend", "details", "reviews", "ratings"},
		lsPath:     app.PathProduct,
	}
	sc.measure = func() { s.RunFor(sz.mixedWindow + mixedCooldown + mixedDrain) }
	sc.outcome = func() outcome {
		lr, ir := ls.Results(), li.Results()
		o := outcome{
			ops:         done - done0,
			attempted:   lr.Issued + ir.Issued - issued0,
			failed:      lr.Errors + ir.Errors - errors0,
			primary:     summarise(lsLat),
			background:  summarise(liLat),
			classCounts: []uint64{lr.Measured, ir.Measured, lr.Issued, ir.Issued},
		}
		if uint64(len(lsLat)) != lr.Measured || uint64(len(liLat)) != ir.Measured {
			o.problems = append(o.problems, fmt.Sprintf("mixed: kept %d+%d samples, generators measured %d+%d", len(lsLat), len(liLat), lr.Measured, ir.Measured))
		}
		for _, r := range []*workload.Results{lr, ir} {
			if r.Issued != r.Completed {
				o.problems = append(o.problems, fmt.Sprintf("%s: issued %d != completed+failed %d", r.Name, r.Issued, r.Completed))
			}
		}
		return o
	}
	return sc
}

// ---------- rpc_chain ----------

func buildRPCChain(seed int64, sz sizes) *scenario {
	c := app.BuildChain(app.ChainConfig{Depth: chainDepth, Mesh: mesh.Config{Seed: seed}})
	var lat []time.Duration
	var issued, completed, failed uint64
	// Closed loop by count: each virtual user issues, awaits the reply,
	// thinks, and repeats until its quota is spent. The seed staggers
	// the users' first requests; after that the mesh's seeded proxy
	// jitter is the only randomness.
	rng := rand.New(rand.NewSource(seed))
	round := func(perUser int, record bool) {
		for u := 0; u < sz.chainUsers; u++ {
			left := perUser
			var next func()
			next = func() {
				if left == 0 {
					return
				}
				left--
				issued++
				at := c.Sched.Now()
				c.Gateway.Serve(app.NewChainRequest(), func(resp *httpsim.Response, err error) {
					completed++
					if err != nil || resp.Status >= 500 {
						failed++
					} else if record {
						lat = append(lat, c.Sched.Now()-at)
					}
					c.Sched.After(chainThink, next)
				})
			}
			c.Sched.After(time.Duration(rng.Int63n(int64(chainThink))), next)
		}
		c.Sched.Run()
	}
	round(sz.chainWarmReqs, false)

	issued0, completed0, failed0 := issued, completed, failed
	sc := &scenario{sched: c.Sched, net: c.Cluster.Network(), cluster: c.Cluster, mesh: c.Mesh}
	for i := 0; i < chainDepth; i++ {
		sc.services = append(sc.services, fmt.Sprintf("svc-%d", i))
	}
	sc.measure = func() { round(sz.chainReqs, true) }
	sc.outcome = func() outcome {
		sum := summarise(lat)
		o := outcome{
			ops:         completed - completed0 - (failed - failed0),
			attempted:   issued - issued0,
			failed:      failed - failed0,
			primary:     sum,
			background:  sum,
			classCounts: []uint64{uint64(len(lat)), issued},
		}
		if issued != completed {
			o.problems = append(o.problems, fmt.Sprintf("chain: issued %d != completed+failed %d", issued, completed))
		}
		return o
	}
	return sc
}

// ---------- bulk_fanin ----------

func buildBulkFanin(seed int64, sz sizes) *scenario {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	net.SetFidelity(simnet.FidelityHybrid)
	cl := cluster.New(net)

	var lat []time.Duration
	var sentAt time.Duration
	delivered := 0
	sc := &scenario{sched: s, net: net, cluster: cl}
	for z := 0; z < sz.fanZones; z++ {
		zone := fmt.Sprintf("z%03d", z)
		coll := cl.AddPod(cluster.PodSpec{Name: "coll-" + zone, Zone: zone})
		if _, err := coll.Host().Listen(9000, func(c *transport.Conn) {
			c.SetOnMessage(func(any, int) {
				delivered++
				lat = append(lat, s.Now()-sentAt)
			})
		}); err != nil {
			panic(err) // a fresh host has no listener: a bug, not an input
		}
		for i := 1; i < sz.fanPodsPerZone; i++ {
			p := cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("send-%s-%d", zone, i), Zone: zone})
			sc.conns = append(sc.conns, p.Host().Dial(coll.Addr(), 9000, transport.Options{}))
		}
	}
	s.Run() // connection ramp: every handshake completes

	// Seeded-random sizes, so no two completions coincide and every one
	// costs a max-min recompute over the flows still active (E20's
	// sizes, staggered by sender index, repeat across zones and collapse
	// to a few hundred recomputes).
	rng := rand.New(rand.NewSource(seed))
	sent, failed := 0, uint64(0)
	sc.measure = func() {
		sentAt = s.Now()
		for i, c := range sc.conns {
			if err := c.SendMessage(i, fanBaseBytes+rng.Intn(fanSpanBytes)); err != nil {
				failed++
				continue
			}
			sent++
		}
		s.Run()
	}
	sc.outcome = func() outcome {
		sum := summarise(lat)
		o := outcome{
			ops:         uint64(delivered),
			attempted:   uint64(len(sc.conns)),
			failed:      failed + uint64(sent-delivered),
			primary:     sum,
			background:  sum,
			classCounts: []uint64{uint64(sent), uint64(delivered)},
		}
		if delivered != sent || sent != len(sc.conns) {
			o.problems = append(o.problems, fmt.Sprintf("fan-in: %d conns, sent %d, delivered %d", len(sc.conns), sent, delivered))
		}
		return o
	}
	return sc
}

// ---------- ctrl_storm ----------

const (
	stormPodsPerShard = 20
	stormFrontends    = 8
)

// buildCtrlStorm is the E21 scenario (ctrlscale.go at the root) with
// the full defence ladder, rebuilt here from the layers' own functions
// because the root RunCtrlScale driver hides the scheduler and cannot
// time its phases apart. The seed also shuffles the restart order.
func buildCtrlStorm(seed int64, sz sizes) *scenario {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	net.SetFidelity(simnet.FidelityHybrid)
	cl := cluster.New(net)

	warmup, window := sz.stormWarmup, sz.stormWindow
	shards := sz.stormSubs / stormPodsPerShard
	if shards < 1 {
		shards = 1
	}
	shardSvc := func(k int) string { return fmt.Sprintf("w%03d", k) }

	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	m := mesh.New(cl, mesh.Config{Seed: seed})
	gw := m.NewGateway(gwPod)

	for i := 0; i < stormFrontends; i++ {
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
	services := []string{"frontend"}

	for k := 0; k < shards; k++ {
		svc := shardSvc(k)
		for i := 0; i < stormPodsPerShard; i++ {
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
		services = append(services, svc)
	}

	// E21 makes a dial to a killed pod a visible failure (single
	// attempts). Here each shard call may retry twice on another
	// replica, so that snapshot staleness shows as mesh.retries and tail
	// latency, and no operation of the benchmark fails.
	cp := m.ControlPlane()
	cp.SetRetryPolicy("frontend", mesh.RetryPolicy{PerTryTimeout: 2 * time.Second})
	for k := 0; k < shards; k++ {
		cp.SetRetryPolicy(shardSvc(k), mesh.RetryPolicy{MaxRetries: 2, PerTryTimeout: 500 * time.Millisecond})
	}

	// Control-plane egress sized so a whole-fleet resync takes ~4 s of
	// line rate, twice the push timeout (E21's physics).
	nSubs := sz.stormSubs + stormFrontends + 1
	fullBytes := 64 + shards*(24+48+24*stormPodsPerShard+40) + (24 + 48 + 24*stormFrontends + 40)
	cpRate := int64(fullBytes) * int64(nSubs) * 8 / 4
	if cpRate < simnet.Mbps {
		cpRate = simnet.Mbps
	}
	cp.EnableDistribution(mesh.DistributionConfig{
		Debounce:             200 * time.Millisecond,
		PushTimeout:          2 * time.Second,
		ResyncDelay:          500 * time.Millisecond,
		GateReadiness:        true,
		Link:                 simnet.LinkConfig{Rate: cpRate, Delay: 100 * time.Microsecond},
		ResyncMax:            8 * time.Second,
		ResyncJitter:         1.0,
		MaxInflightPushes:    sz.stormInflight,
		MaxConcurrentResyncs: sz.stormResyncs,
	})

	// Replica 1 of every shard restarts once, staggered over the storm
	// in seeded order; the control plane crashes a quarter of the way in
	// and recovers mid-storm.
	stormAt := warmup + window/10
	stormLen := window / 2
	crashAt := stormAt + stormLen/4
	outage := window / 6
	recoverAt := crashAt + outage
	stagger := stormLen / time.Duration(shards)
	order := rand.New(rand.NewSource(seed)).Perm(shards)
	events := make([]chaos.Event, 0, shards+1)
	for slot, k := range order {
		events = append(events, chaos.Event{
			At: stormAt + time.Duration(slot)*stagger, Duration: time.Second,
			Fault: chaos.Restart{Pod: shardSvc(k) + "-1", Grace: 200 * time.Millisecond, Resubscribe: true},
		})
	}
	events = append(events, chaos.Event{At: crashAt, Duration: outage, Fault: chaos.ControlPlaneCrash{}})
	chaos.NewEngine(&chaos.Target{Sched: sched, Cluster: cl, Mesh: m}).
		Schedule(chaos.Scenario{Name: "bench-ctrl-storm", Events: events})

	srv := cp.Distribution()
	recoveredAt := time.Duration(-1)
	horizon := warmup + window
	var probe func()
	probe = func() {
		if srv.UnsyncedCount() == 0 {
			recoveredAt = sched.Now()
			return
		}
		if sched.Now() < horizon {
			sched.After(100*time.Millisecond, probe)
		}
	}
	sched.At(recoverAt+100*time.Millisecond, probe)

	reqN := 0
	var lat []time.Duration
	g := workload.Start(sched, gw, workload.Spec{
		Name: "ctrl_storm", Rate: stormRPS, Seed: seed + 11,
		NewRequest: func() *httpsim.Request {
			k := reqN % shards
			reqN++
			r := httpsim.NewRequest("GET", fmt.Sprintf("/s/%03d", k))
			r.Headers.Set(mesh.HeaderHost, "frontend")
			return r
		},
		Warmup: warmup, Measure: window, Cooldown: time.Second,
		OnComplete: inWindow(warmup, window, &lat, nil),
	})
	sched.RunFor(warmup)

	st0, r0 := srv.Stats(), g.Results()
	sc := &scenario{sched: sched, net: net, cluster: cl, mesh: m, services: services}
	sc.convergeMS = func() float64 {
		if recoveredAt < 0 {
			return 0 // did not converge: outcome reports it as a problem
		}
		return float64(recoveredAt-recoverAt) / float64(time.Millisecond)
	}
	sc.measure = func() { sched.RunFor(window + stormDrain) }
	sc.outcome = func() outcome {
		st, r := srv.Stats(), g.Results()
		pushes := st.Pushes() - st0.Pushes()
		stale := m.Metrics().Histogram(ctrlplane.MetricStalenessSeconds, nil)
		o := outcome{
			// An op, the per-op denominator, is a push handed to the
			// transport. What may not fail is a data-plane request: a
			// push to a pod that is down times out by design, and counts
			// as wasted work in ctrlplane.useful_push_ratio instead.
			ops:         pushes,
			attempted:   r.Issued - r0.Issued,
			failed:      r.Errors - r0.Errors,
			primary:     summarise(lat),
			background:  summariseHist(stale),
			classCounts: []uint64{r.Measured, r.Issued, st.DeltaPushes, st.FullPushes, st.Acks},
		}
		if r.Issued != r.Completed {
			o.problems = append(o.problems, fmt.Sprintf("ctrl_storm: issued %d != completed+failed %d", r.Issued, r.Completed))
		}
		if recoveredAt < 0 {
			o.problems = append(o.problems, fmt.Sprintf("ctrl_storm: did not converge, %d subscribers unsynced", srv.UnsyncedCount()))
		}
		return o
	}
	return sc
}

// ---------- traced rep: work counts through accessors ----------

// armTaps installs the bottleneck-queue tap for the measure phase. It
// only observes; the traced rep's digest must equal the untraced one.
func (sc *scenario) armTaps() {
	sc.measureFrom = sc.sched.Now()
	if sc.bottleneck == nil {
		return
	}
	sc.qwaitHi, sc.qwaitLo = hdr.New(), hdr.New()
	sc.bottleneck.SetTap(func(p *simnet.Packet, at time.Duration) {
		if p.Mark >= simnet.MarkHigh {
			sc.qwaitHi.RecordDuration(at - p.EnqueuedAt)
		} else {
			sc.qwaitLo.RecordDuration(at - p.EnqueuedAt)
		}
	})
}

// counters reads every cumulative work counter the layers expose; the
// traced rep reports the difference across the measure phase.
func (sc *scenario) counters() map[string]float64 {
	c := map[string]float64{"simnet_sched.events": float64(sc.sched.Steps())}
	var pk, by, dr uint64
	for _, l := range sc.net.Links() {
		for _, n := range []*simnet.NIC{l.A(), l.B()} {
			pk += n.TxPackets()
			by += n.TxBytes()
			dr += n.Drops()
		}
	}
	c["simnet_link.tx_packets"] = float64(pk)
	c["simnet_link.tx_mb"] = float64(by) / 1e6
	c["simnet_link.drops"] = float64(dr)
	if eng := sc.net.FlowEngine(); eng != nil {
		fs := eng.Stats()
		c["simnet_flow.started"] = float64(fs.Started)
		c["simnet_flow.demoted"] = float64(fs.Demoted)
		c["simnet_flow.recomputes"] = float64(fs.Recomputes)
	}
	if sc.bottleneck != nil {
		c["tc.bottleneck_drops"] = float64(sc.bottleneck.Drops())
		c["tc.bottleneck_tx_bytes"] = float64(sc.bottleneck.TxBytes())
	}
	var rtx, rto, fluid, demoted uint64
	for _, conn := range sc.conns {
		rtx += conn.Retransmits()
		rto += conn.Timeouts()
		fluid += conn.FluidCompleted()
		demoted += conn.FluidDemotions()
	}
	c["transport.retransmits"] = float64(rtx)
	c["transport.rto_timeouts"] = float64(rto)
	c["transport.fluid_msgs"] = float64(fluid)
	c["transport.fluid_demotions"] = float64(demoted)
	if sc.mesh != nil {
		reg := sc.mesh.Metrics()
		c["mesh.requests"] = float64(reg.CounterTotal(mesh.MetricRequestsTotal))
		c["mesh.retries"] = float64(reg.CounterTotal(mesh.MetricRetriesTotal))
		c["trace.spans"] = float64(sc.mesh.Tracer().Len())
		if srv := sc.mesh.ControlPlane().Distribution(); srv != nil {
			st := srv.Stats()
			c["ctrlplane.pushes_delta"] = float64(st.DeltaPushes)
			c["ctrlplane.pushes_full"] = float64(st.FullPushes)
			c["ctrlplane.wire_mb"] = float64(st.WireBytes) / 1e6
			c["ctrlplane.push_timeouts"] = float64(st.Timeouts)
			c["ctrlplane.resyncs"] = float64(st.Resyncs)
			c["ctrlplane.acks"] = float64(st.Acks)
		}
	}
	return c
}

// levels reads the work statistics that are not cumulative counters:
// peaks, sizes, simulated percentiles. Read once, after the rep.
func (sc *scenario) levels(delta map[string]float64) map[string]float64 {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	v := map[string]float64{"cluster.pods": float64(len(sc.cluster.Pods()))}
	if eng := sc.net.FlowEngine(); eng != nil {
		v["simnet_flow.peak_active"] = float64(eng.Stats().PeakActive)
	}
	conns := 0
	for _, p := range sc.cluster.Pods() {
		conns += p.Host().ConnCount()
	}
	v["transport.conns"] = float64(conns)
	if sc.bottleneck != nil {
		simSec := (sc.sched.Now() - sc.measureFrom).Seconds()
		rate := float64(sc.bottleneck.Link().Config().Rate)
		v["tc.bottleneck_util"] = delta["tc.bottleneck_tx_bytes"] * 8 / (rate * simSec)
		v["tc.qwait_high_p99_us"] = us(sc.qwaitHi.QuantileDuration(0.99))
		v["tc.qwait_low_p99_us"] = us(sc.qwaitLo.QuantileDuration(0.99))
	}
	if sc.mesh == nil {
		return v
	}
	hops := hdr.New()
	for _, svc := range sc.services {
		hops.Merge(sc.mesh.Metrics().Histogram(mesh.MetricRequestDuration,
			metrics.Labels{"service": svc, "direction": "outbound"}))
	}
	v["mesh.hop_p50_us"] = us(hops.QuantileDuration(0.50))
	v["mesh.hop_p99_us"] = us(hops.QuantileDuration(0.99))
	if srv := sc.mesh.ControlPlane().Distribution(); srv != nil {
		st := srv.Stats()
		v["ctrlplane.peak_inflight"] = float64(st.PeakInflight)
		v["ctrlplane.max_lag"] = float64(st.MaxLag)
		v["ctrlplane.converge_ms"] = sc.convergeMS()
		if pushes := delta["ctrlplane.pushes_delta"] + delta["ctrlplane.pushes_full"]; pushes > 0 {
			v["ctrlplane.useful_push_ratio"] = delta["ctrlplane.acks"] / pushes
		}
	}
	if sc.lsPath != "" {
		for svc, ms := range critSelfMS(sc.mesh.Tracer(), sc.lsPath) {
			v["trace.crit_self_ms."+svc] = ms
		}
	}
	return v
}

// critSelfMS is the mean critical-path self time, by service, over the
// traces whose root span is a request for path.
func critSelfMS(tr *trace.Collector, path string) map[string]float64 {
	sum := map[string]time.Duration{}
	n := 0
	for _, id := range tr.TraceIDs() {
		root := tr.Tree(id)
		if root == nil || !strings.HasSuffix(root.Span.Name, " "+path) {
			continue
		}
		n++
		for _, step := range trace.CriticalPath(root) {
			svc := step.Span.Service
			if svc == "ingress-gateway" {
				svc = "gateway"
			}
			sum[svc] += step.SelfTime
		}
	}
	out := map[string]float64{}
	for svc, d := range sum {
		out[svc] = float64(d) / float64(time.Millisecond) / float64(n)
	}
	return out
}

// ---------- unit-cost ladder ----------

// A rung drives one layer through its public functions only. setup
// builds it; run is the timed part; it returns how many units of work
// (events, packets, messages, ...) run performed.
type rung struct {
	name  string
	setup func(quick bool) (run func() float64)
}

func scaled(quick bool, n int) int {
	if quick {
		return n/100 + 1
	}
	return n
}

// linkRung is the packet-path driver shared by the FIFO rung and the
// tc rung: inject -> route -> qdisc -> serialise -> propagate ->
// deliver over one link with a 64-packet window of MTU packets.
func linkRung(quick, nearStrict bool) func() float64 {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	na, nb := net.AddNode("a"), net.AddNode("b")
	link := net.Connect(na, nb, simnet.LinkConfig{Rate: 15 * simnet.Gbps, Delay: 10 * time.Microsecond})
	if nearStrict {
		link.A().SetQdisc(tc.NewNearStrict(tc.NearStrictConfig{LinkRate: link.Config().Rate, HighShare: 0.95}, s.Now))
	}
	flow := simnet.FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: simnet.ProtoUDP}
	total := scaled(quick, 300_000)
	const window = 64
	sent, delivered := 0, 0
	send := func() {
		for sent < total && sent-delivered < window {
			p := net.AllocPacket()
			p.Flow, p.Size = flow, simnet.MTU
			if nearStrict {
				p.Mark = simnet.MarkLow + simnet.Mark(sent%2) // alternate low and high
			}
			na.Inject(p)
			sent++
		}
	}
	nb.SetDeliver(func(*simnet.Packet) { delivered++; send() })
	return func() float64 {
		send()
		s.Run()
		return float64(delivered)
	}
}

// pairRung builds two hosts on one link for the transport and httpsim
// rungs.
func pairRung() (*simnet.Scheduler, *transport.Host, *transport.Host) {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	na, nb := net.AddNode("a"), net.AddNode("b")
	net.Connect(na, nb, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 20 * time.Microsecond})
	return s, transport.NewHost(na), transport.NewHost(nb)
}

const rungBodyBytes = 2 << 10

// chainRung is the host time per request through a BuildChain of the
// given depth; mesh.hop_us is the slope between depth 1 and 16.
func chainRung(depth int) func(bool) func() float64 {
	return func(quick bool) func() float64 {
		c := app.BuildChain(app.ChainConfig{Depth: depth, ResponseBytes: rungBodyBytes, Mesh: mesh.Config{Seed: 1}})
		left := scaled(quick, 750)
		done := 0
		var next func()
		next = func() {
			if left == 0 {
				return
			}
			left--
			c.Gateway.Serve(app.NewChainRequest(), func(*httpsim.Response, error) { done++; next() })
		}
		return func() float64 {
			next()
			c.Sched.Run()
			return float64(done)
		}
	}
}

// nullTransport acknowledges every push at the same virtual instant:
// ctrlplane.push_us is the server's own bookkeeping, with no network
// under it.
type nullTransport struct{ sched *simnet.Scheduler }

func (t nullTransport) Push(_ string, _ *ctrlplane.Update, done func(ack bool, err error)) {
	t.sched.After(0, func() { done(true, nil) })
}

var rungs = []rung{
	{"simnet_sched.event_ns", func(quick bool) func() float64 {
		s := simnet.NewScheduler()
		total := scaled(quick, 1_500_000)
		scheduled := 0
		var tick func()
		tick = func() {
			if scheduled < total {
				scheduled++
				s.After(time.Duration(scheduled%13+1)*time.Microsecond, tick)
			}
		}
		return func() float64 {
			for i := 0; i < 1024 && scheduled < total; i++ {
				scheduled++
				s.After(time.Duration(i%13+1)*time.Microsecond, tick)
			}
			s.Run()
			return float64(s.Steps())
		}
	}},
	{"simnet_link.packet_ns", func(quick bool) func() float64 { return linkRung(quick, false) }},
	{"tc.packet_ns", func(quick bool) func() float64 { return linkRung(quick, true) }},
	{"simnet_flow.completion_us", func(quick bool) func() float64 {
		s := simnet.NewScheduler()
		net := simnet.NewNetwork(s)
		net.SetFidelity(simnet.FidelityFlow)
		na, sw, nb := net.AddNode("a"), net.AddNode("sw"), net.AddNode("b")
		net.Connect(na, sw, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 10 * time.Microsecond})
		net.Connect(sw, nb, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 10 * time.Microsecond})
		eng := net.FlowEngine()
		path, _, ok := eng.ResolvePath(na, simnet.FlowKey{Src: na.Addr(), Dst: nb.Addr()})
		if !ok {
			panic("bench: flow rung has no path")
		}
		rounds := scaled(quick, 20)
		return func() float64 {
			// 1000 concurrent flows of distinct sizes: each completion
			// is one recompute over the flows still active.
			for r := 0; r < rounds; r++ {
				for i := 0; i < 1000; i++ {
					eng.Start(path, int64(1<<20+i*1024), nil, nil)
				}
				s.Run()
			}
			return float64(eng.Stats().Completed)
		}
	}},
	{"transport.bulk_kb_ns", func(quick bool) func() float64 {
		s, ch, sh := pairRung()
		msgs, got := scaled(quick, 32), 0
		if _, err := sh.Listen(80, func(c *transport.Conn) {
			c.SetOnMessage(func(any, int) { got++ })
		}); err != nil {
			panic(err)
		}
		c := ch.Dial(sh.Node().Addr(), 80, transport.Options{CC: "reno"})
		return func() float64 {
			for k := 0; k < msgs; k++ {
				if err := c.SendMessage(k, 2<<20); err != nil {
					panic(err)
				}
			}
			s.Run()
			return float64(got) * (2 << 20) / 1024
		}
	}},
	{"transport.small_msg_us", func(quick bool) func() float64 {
		s, ch, sh := pairRung()
		left, msgs := scaled(quick, 15_000), 0
		// Ping-pong with the httpsim rung's wire sizes, so that rung
		// minus two of these messages is httpsim's own cost.
		reqBytes := httpsim.NewRequest("GET", "/rung").WireSize()
		resp := httpsim.NewResponse(httpsim.StatusOK)
		resp.BodyBytes = rungBodyBytes
		respBytes := resp.WireSize()
		if _, err := sh.Listen(80, func(c *transport.Conn) {
			c.SetOnMessage(func(any, int) {
				msgs++
				if err := c.SendMessage(nil, respBytes); err != nil {
					panic(err)
				}
			})
		}); err != nil {
			panic(err)
		}
		c := ch.Dial(sh.Node().Addr(), 80, transport.Options{})
		ping := func() {
			if left == 0 {
				return
			}
			left--
			if err := c.SendMessage(nil, reqBytes); err != nil {
				panic(err)
			}
		}
		c.SetOnMessage(func(any, int) { msgs++; ping() })
		return func() float64 {
			ping()
			s.Run()
			return float64(msgs)
		}
	}},
	{"httpsim.req_us", func(quick bool) func() float64 {
		s, ch, sh := pairRung()
		if _, err := httpsim.NewServer(sh, 80, func(_ httpsim.Ctx, _ *httpsim.Request, respond func(*httpsim.Response)) {
			out := httpsim.NewResponse(httpsim.StatusOK)
			out.BodyBytes = rungBodyBytes
			respond(out)
		}); err != nil {
			panic(err)
		}
		cl := httpsim.NewClient(ch, sh.Node().Addr(), 80, transport.Options{})
		left, done := scaled(quick, 15_000), 0
		var next func()
		next = func() {
			if left == 0 {
				return
			}
			left--
			cl.Do(httpsim.NewRequest("GET", "/rung"), func(*httpsim.Response, error) { done++; next() })
		}
		return func() float64 {
			next()
			s.Run()
			return float64(done)
		}
	}},
	{"mesh.chain1_req_us", chainRung(1)},
	{"mesh.chain16_req_us", chainRung(chainDepth)},
	{"ctrlplane.push_us", func(quick bool) func() float64 {
		s := simnet.NewScheduler()
		srv := ctrlplane.NewServer(ctrlplane.Config{Sched: s, Transport: nullTransport{s}})
		for i := 0; i < 1000; i++ {
			srv.Subscribe(fmt.Sprintf("sub-%04d", i))
		}
		rounds := scaled(quick, 100)
		return func() float64 {
			for r := 0; r < rounds; r++ {
				srv.SetResource(fmt.Sprintf("svc-%02d", r%20), r, 600)
				srv.Flush()
				s.Run()
			}
			return float64(srv.Stats().Pushes())
		}
	}},
	{"cluster.pod_setup_us", func(quick bool) func() float64 {
		pods := scaled(quick, 2000)
		return func() float64 {
			cl := cluster.New(simnet.NewNetwork(simnet.NewScheduler()))
			m := mesh.New(cl, mesh.Config{Seed: 1})
			for i := 0; i < pods; i++ {
				m.InjectSidecar(cl.AddPod(cluster.PodSpec{
					Name: fmt.Sprintf("p-%d", i), Labels: map[string]string{"app": fmt.Sprintf("svc-%d", i/20)},
				}))
			}
			return float64(len(cl.Pods()))
		}
	}},
	{"hdr.record_ns", func(quick bool) func() float64 {
		h := hdr.New()
		n := scaled(quick, 4_000_000)
		return func() float64 {
			v := uint64(1)
			for i := 0; i < n; i++ {
				v = v*6364136223846793005 + 1442695040888963407 // LCG: spread over the buckets
				h.Record(int64(v >> 40))
			}
			return float64(h.Count())
		}
	}},
}
