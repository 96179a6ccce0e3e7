// Command bench is the repository's benchmark: four workloads that
// each load a different layer of the simulator, ten end-to-end metrics
// (host cost of running the simulator, and the simulated mesh's own
// latency), and per-layer metrics taken from outside the program.
// README.md in this directory is the manual; BENCHMARK.json at the
// root declares what this command prints.
//
//	go run ./bench -workload rpc_chain -seed 1
//	go run ./bench -workload all -trace 1 -spans spans.jsonl
//	go run ./bench -list
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	reps     int
	seconds  float64
	trace    bool
	quick    bool
	spans    string
}

// minReps is the fewest timed reps a run reports a median of.
const minReps = 3

// traceMemRate is the traced rep's allocation sampling interval, finer
// than the runtime's 512 KB so a three-second window yields enough
// samples to split nineteen ways.
const traceMemRate = 4096

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	var list bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "drives arrivals, mesh jitter, message sizes and restart order")
	fs.IntVar(&o.reps, "reps", 0, "timed reps per workload (0: as many as fit in -seconds, at least 3)")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds of timed reps per workload when -reps is 0")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics from a traced rep, not the end-to-end ones")
	fs.BoolVar(&o.quick, "quick", false, "small sizes and no warm rep, for tests; bounds do not apply")
	fs.BoolVar(&list, "list", false, "print every metric with unit, direction and bound, then exit")
	fs.StringVar(&o.spans, "spans", "", "write the run's host-time spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.reps < 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	o.trace = trace == 1
	if list {
		printList(stdout)
		return 0
	}
	var todo []workloadDef
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	log := newSpanLog()
	code := 0
	for _, w := range todo {
		r, err := runWorkload(w, o, log)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := r.print(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !r.correct() {
			code = 1
		}
	}
	if o.spans != "" {
		if err := log.writeTo(o.spans); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// ---------- one rep ----------

// rep is one build + warm-up + measure of a workload.
type rep struct {
	setupS, wallS       float64
	events              uint64
	mallocs, allocBytes uint64
	liveHeapMB          float64
	out                 outcome
	digest              string
}

// endToEnd returns the rep's value of every end-to-end metric.
func (r rep) endToEnd() map[string]float64 {
	ops := float64(max(r.out.ops, 1))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]float64{
		"setup_s":         r.setupS,
		"wall_s":          r.wallS,
		"events_per_op":   float64(r.events) / ops,
		"allocs_per_op":   float64(r.mallocs) / ops,
		"alloc_kb_per_op": float64(r.allocBytes) / 1024 / ops,
		"live_heap_mb":    r.liveHeapMB,
		"sim_p50_ms":      ms(r.out.primary.p50),
		"sim_p99_ms":      ms(r.out.primary.p99),
		"sim_bg_p50_ms":   ms(r.out.background.p50),
		"sim_ok_share":    1 - float64(r.out.failed)/float64(max(r.out.attempted, 1)),
	}
}

// capture is what the traced rep records around its measure phase, on
// top of what every rep records.
type capture struct {
	cpu, alloc  map[string]float64 // layer -> share
	counts      map[string]float64 // per-layer metric -> value
	cpuProfiled float64            // seconds of samples in the CPU profile
}

// runRep runs one rep. The simulation runs on this goroutine; host
// time is read only at the three phase boundaries.
func runRep(w workloadDef, o options, log *spanLog, n int, tr *capture) (rep, error) {
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	var r rep
	var dir string
	if tr != nil {
		var err error
		if dir, err = profDir(); err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = traceMemRate
	}
	runtime.GC()
	log.begin(w.name+"/rep", n)
	defer log.end()

	var sc *scenario
	r.setupS = log.time("setup", n, func() { sc = w.build(o.seed, sz) }).Seconds()

	var stopTrace func() error
	if tr != nil {
		var err error
		if stopTrace, err = tr.start(sc, dir); err != nil {
			return r, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events0 := sc.sched.Steps()
	r.wallS = log.time("measure", n, sc.measure).Seconds()
	r.events = sc.sched.Steps() - events0
	runtime.ReadMemStats(&m1)
	if tr != nil {
		if err := stopTrace(); err != nil {
			return r, err
		}
		tr.counts["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		tr.counts["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	}
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.out = sc.outcome()

	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeapMB = float64(m1.HeapAlloc) / (1 << 20)
	r.digest = digest(r, sc.linkBytes())
	runtime.KeepAlive(sc) // live_heap_mb is the scenario's state, so it must still be reachable
	return r, nil
}

// digest hashes everything simulated about a rep. Equal seeds must give
// equal digests on every rep and, for a change that only makes the
// simulator faster, on parent and change alike.
func digest(r rep, linkBytes uint64) string {
	h := sha256.New()
	o := r.out
	fmt.Fprintln(h, o.primary, o.background, r.events, o.ops, o.attempted, o.failed, o.classCounts, linkBytes)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// rusage reads the process's user+system CPU seconds and peak resident
// set so far.
func rusage() (cpuS, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024, nil // Linux reports KB
}

// start begins the traced rep's captures once set-up is over and
// returns the function that ends them after the measure phase.
func (tr *capture) start(sc *scenario, dir string) (stop func() error, err error) {
	sc.armTaps()
	before := sc.counters()
	cpu0, _, err := rusage()
	if err != nil {
		return nil, err
	}
	// The allocation profile is cumulative and published at a GC, so it
	// is snapshotted after a forced one on either side of the window.
	runtime.GC()
	if err := writeAllocs(dir + "/alloc0.pb.gz"); err != nil {
		return nil, err
	}
	f, err := os.Create(dir + "/cpu.pb.gz")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		cpu1, peak, err := rusage()
		if err != nil {
			return err
		}
		after := sc.counters()
		delta := map[string]float64{}
		for k, v := range after {
			delta[k] = v - before[k]
		}
		tr.counts = sc.levels(delta)
		for k, v := range delta {
			tr.counts[k] = v
		}
		tr.counts["runtime.cpu_s"] = cpu1 - cpu0
		tr.counts["runtime.peak_rss_mb"] = peak
		runtime.GC()
		if err := writeAllocs(dir + "/alloc1.pb.gz"); err != nil {
			return err
		}
		samples, err := pprofTraces("", "", dir+"/cpu.pb.gz")
		if err != nil {
			return err
		}
		tr.cpu = layerShares(samples, true)
		for _, s := range samples {
			tr.cpuProfiled += s.value / 1e9
		}
		samples, err = pprofTraces("alloc_objects", dir+"/alloc0.pb.gz", dir+"/alloc1.pb.gz")
		if err != nil {
			return err
		}
		tr.alloc = layerShares(samples, false)
		return nil
	}, nil
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------- one workload's run ----------

// result is everything one run of one workload reports.
type result struct {
	workload string
	opts     options
	reps     []rep              // timed, untraced
	digests  []string           // every rep's, warm and traced included
	perLayer map[string]float64 // traced run only
	traced   *capture
	problems []string
	warnings []string
}

func runWorkload(w workloadDef, o options, log *spanLog) (*result, error) {
	res := &result{workload: w.name, opts: o}

	// One untimed warm rep: heap grown, code paged in. Tests skip it.
	if !o.quick {
		warm, err := runRep(w, o, log, 0, nil)
		if err != nil {
			return nil, err
		}
		res.keep(warm)
	}

	// Timed reps. A traced run needs only a reference median for the
	// tracing overhead, so it spends less of the budget here.
	budget := o.seconds
	if o.trace {
		budget *= 0.4
	}
	started := hostNow()
	for n := 1; ; n++ {
		if o.reps > 0 && n > o.reps {
			break
		}
		if o.reps == 0 && n > minReps {
			spent := hostNow().Sub(started).Seconds()
			if spent+spent/float64(n-1) > budget {
				break
			}
		}
		r, err := runRep(w, o, log, n, nil)
		if err != nil {
			return nil, err
		}
		res.keep(r)
		res.reps = append(res.reps, r)
	}

	if o.trace {
		if err := res.runTraced(w, o, log); err != nil {
			return nil, err
		}
	}
	for _, d := range res.digests {
		if d != res.digests[0] {
			res.problems = append(res.problems, fmt.Sprintf("sim_digest differs between reps: %v", res.digests))
			break
		}
	}
	if iqr := 100 * iqrShare(res.column("wall_s")); iqr > 100*boundOf("wall_s") {
		res.warnings = append(res.warnings, fmt.Sprintf("wall_s quartiles are %.1f%% of the median apart across this run's reps, beyond its %.0f%% bound: the host is noisy, trust events_per_op and allocs_per_op", iqr, 100*boundOf("wall_s")))
	}
	return res, nil
}

// keep records a rep of the workload's own arm: its digest must match
// the others', its problems fail the run.
func (res *result) keep(r rep) {
	res.digests = append(res.digests, r.digest)
	res.problems = append(res.problems, r.out.problems...)
}

func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.name == name {
			return d.bound
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// column returns one end-to-end metric's value on every timed rep.
func (res *result) column(name string) []float64 {
	vs := make([]float64, len(res.reps))
	for i, r := range res.reps {
		vs[i] = r.endToEnd()[name]
	}
	return vs
}

// runTraced is the extra work of -trace 1: one traced rep, the
// unit-cost ladder, and on mixed_paper the baseline arm.
func (res *result) runTraced(w workloadDef, o options, log *spanLog) error {
	tr := &capture{}
	traced, err := runRep(w, o, log, len(res.reps)+1, tr)
	if err != nil {
		return err
	}
	res.traced = tr
	res.keep(traced)

	pl := map[string]float64{}
	for _, d := range perLayer() {
		pl[d.name] = 0 // full grid: a layer the workload never enters reports 0
	}
	sum := 0.0
	for _, l := range layers {
		pl[l+".cpu_share"] = tr.cpu[l]
		sum += tr.cpu[l]
		if l != "runtime_gc" {
			pl[l+".alloc_share"] = tr.alloc[l]
		}
	}
	// A -quick measure phase can end before the profiler's first tick.
	if (sum < 0.99 || sum > 1.01) && !(o.quick && sum == 0) {
		res.problems = append(res.problems, fmt.Sprintf("cpu_share sums to %.4f over %.2f s profiled, want 1 +- 0.01", sum, tr.cpuProfiled))
	}
	for k, v := range tr.counts {
		if _, declared := pl[k]; declared {
			pl[k] = v
		}
	}
	for k, v := range runLadder(o.quick, log) {
		pl[k] = v
	}

	wall := median(res.column("wall_s"))
	pl["simnet_sched.event_wall_ns"] = wall * 1e9 / float64(traced.events)
	pl["bench.wall_iqr_pct"] = 100 * iqrShare(res.column("wall_s"))
	pl["bench.trace_overhead_pct"] = 100 * (traced.wallS/wall - 1)

	if w.name == "mixed_paper" {
		// The paper's two ratios need the arm without the optimisation.
		w.build = buildMixedBaseline
		base, err := runRep(w, o, log, len(res.reps)+2, nil)
		if err != nil {
			return err
		}
		res.problems = append(res.problems, base.out.problems...)
		opt := traced.out
		pl["core.ls_p99_gain_x"] = float64(base.out.primary.p99) / float64(opt.primary.p99)
		pl["core.li_p99_cost_pct"] = 100 * (float64(opt.background.p99)/float64(base.out.background.p99) - 1)
	}
	res.perLayer = pl
	return nil
}

// ladderTries is how often each rung is built and run; its unit cost is
// the fastest try, the usual reading of a micro-driver on a host whose
// noise only ever adds time.
const ladderTries = 3

// runLadder runs every rung and derives the unit costs. Each try is a
// span under "ladder"; a self cost is the rung's inclusive cost minus
// the rungs it is built on.
func runLadder(quick bool, log *spanLog) map[string]float64 {
	log.begin("ladder", 0)
	defer log.end()
	ns := map[string]float64{} // rung -> host ns per unit of work
	for _, rg := range rungs {
		for try := 1; try <= ladderTries; try++ {
			runRung := rg.setup(quick)
			runtime.GC()
			var units float64
			d := log.time(rg.name, try, func() { units = runRung() })
			if units <= 0 {
				panic("bench: rung " + rg.name + " did no work")
			}
			if cost := float64(d) / units; try == 1 || cost < ns[rg.name] {
				ns[rg.name] = cost
			}
		}
	}
	us := func(name string) float64 { return ns[name] / 1e3 }
	hop := (us("mesh.chain16_req_us") - us("mesh.chain1_req_us")) / (chainDepth - 1)
	return map[string]float64{
		"simnet_sched.event_ns":     ns["simnet_sched.event_ns"],
		"simnet_link.packet_ns":     ns["simnet_link.packet_ns"],
		"tc.packet_self_ns":         ns["tc.packet_ns"] - ns["simnet_link.packet_ns"],
		"simnet_flow.completion_us": us("simnet_flow.completion_us"),
		"transport.bulk_kb_ns":      ns["transport.bulk_kb_ns"],
		"transport.small_msg_us":    us("transport.small_msg_us"),
		"httpsim.req_us":            us("httpsim.req_us"),
		"httpsim.req_self_us":       us("httpsim.req_us") - 2*us("transport.small_msg_us"),
		"mesh.hop_us":               hop,
		"mesh.hop_self_us":          hop - us("httpsim.req_us"),
		"ctrlplane.push_us":         us("ctrlplane.push_us"),
		"cluster.pod_setup_us":      us("cluster.pod_setup_us"),
		"hdr.record_ns":             ns["hdr.record_ns"],
	}
}

// ---------- output ----------

func (res *result) correct() bool { return len(res.problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report and, as the last line, the one JSON object
// BENCHMARK.json's driver reads.
func (res *result) print(w io.Writer) error {
	o := res.opts
	last := res.reps[len(res.reps)-1].out
	fmt.Fprintf(w, "workload %s  seed %d  timed reps %d  quick %v  trace %v\n", res.workload, o.seed, len(res.reps), o.quick, o.trace)
	fmt.Fprintf(w, "%-18s %14s %-7s %14s %14s %3s  %s\n", "end-to-end", "median", "unit", "q1", "q3", "n", "bound")
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(res.column(d.name))
		fmt.Fprintf(w, "%-18s %14.6g %-7s %14.6g %14.6g %3d  %g\n", d.name, med, d.unit, q1, q3, len(res.reps), d.bound)
		out[d.name] = metricValue{med, d.unit}
	}
	fmt.Fprintf(w, "sim_p99_ms is p%g of %d samples; the background class has %d, its p%g is %.6g sim_ms; sim_fail_share %g (%d of %d ops)\n",
		100*last.primary.tailQ, last.primary.n, last.background.n, 100*last.background.tailQ,
		float64(last.background.p99)/float64(time.Millisecond),
		float64(last.failed)/float64(max(last.attempted, 1)), last.failed, last.attempted)
	fmt.Fprintf(w, "sim_digest %s\n", res.digests[0])
	if res.perLayer != nil {
		out = map[string]metricValue{}
		fmt.Fprintf(w, "per-layer, from one traced rep (%.2f s of CPU samples), the ladder and the accessors:\n", res.traced.cpuProfiled)
		for _, d := range perLayer() {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, res.perLayer[d.name], d.unit)
			out[d.name] = metricValue{res.perLayer[d.name], d.unit}
		}
	}
	fmt.Fprintln(w, "notes: host times are medians over reps with quartiles; sim_* are simulated time and repeat exactly for a seed.")
	fmt.Fprintln(w, "notes: open-loop generators run in virtual time, so generator lateness is zero by construction and is not reported.")
	fmt.Fprintln(w, "notes: the model is validated only against the repo's own packet-mode reference and the paper's two ratios, not against hardware.")
	for _, s := range res.warnings {
		fmt.Fprintln(w, "warning:", s)
	}
	checks := map[string]any{"ok": res.correct(), "digest_stable_over_reps": len(res.digests), "problems": res.problems}
	if b, err := json.Marshal(checks); err == nil {
		fmt.Fprintf(w, "checks %s\n", b)
	}

	var attempted, failed uint64
	for _, r := range res.reps {
		attempted += r.out.attempted
		failed += r.out.failed
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), max(attempted, 1), failed, out})
	if err != nil {
		return fmt.Errorf("a metric is not a finite number: %v", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
