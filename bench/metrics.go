package main

import (
	"fmt"
	"io"
)

// metricDef declares one metric: BENCHMARK.json repeats name, unit,
// better and bound, and bench_test.go holds the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression. Per-layer
	// metrics explain; they have no bound.
	bound   float64
	meaning string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics a user of the simulator sees. Host cost
// (setup_s .. live_heap_mb) is what running the simulator takes;
// sim_* is the modelled mesh's behaviour, which a simulator-only
// speed-up must leave bit-identical. README.md says how each bound was
// set from the spread across seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, "host time: build (topology, sidecars, policies, fault script) + simulated warm-up"},
	{"wall_s", "s", lower, 0.25, "host time: simulated measure window + drain, the simulator's headline cost"},
	{"events_per_op", "count", lower, 0.09, "Scheduler.Steps() over the measure phase / ops: exact, host-independent proxy for wall_s"},
	{"allocs_per_op", "count", lower, 0.09, "MemStats.Mallocs over the measure phase / ops"},
	{"alloc_kb_per_op", "KB", lower, 0.09, "MemStats.TotalAlloc over the measure phase / ops"},
	{"live_heap_mb", "MB", lower, 0.06, "HeapAlloc after a forced GC at the end of the rep, scenario still reachable"},
	{"sim_p50_ms", "sim_ms", lower, 0.05, "simulated median latency of the workload's primary class"},
	{"sim_p99_ms", "sim_ms", lower, 0.15, "simulated tail latency of the primary class (p99 where >= 10 samples lie beyond it)"},
	{"sim_bg_p50_ms", "sim_ms", lower, 0.12, "simulated median of the class that pays for the primary's priority: LI on mixed_paper, config staleness on ctrl_storm; the primary's median again elsewhere"},
	{"sim_ok_share", "ratio", higher, 0.001, "1 - sim_fail_share: ops that neither failed, were refused or shed, timed out nor went undelivered / attempted"},
}

// layers are the repo's packages, with simnet split by receiver type
// and mesh split into the data path and the config distributor.
// runtime_gc is background GC with no repo frame on the stack.
var layers = []string{
	"simnet_sched", "simnet_link", "simnet_flow", "tc", "transport", "httpsim",
	"cluster", "mesh", "mesh_distrib", "ctrlplane", "core", "chaos", "app",
	"workload", "metrics", "hdr", "trace", "runtime_gc", "bench", "other",
}

// ladderDefs are the unit costs by differencing. A *_self_* metric is
// its rung's inclusive cost minus the rungs below it.
var ladderDefs = []metricDef{
	{"simnet_sched.event_ns", "ns", lower, 0, "host ns per event: 1024 self-rescheduling After timers"},
	{"simnet_link.packet_ns", "ns", lower, 0, "host ns per MTU packet, Inject -> deliver over one FIFO link, window 64"},
	{"tc.packet_self_ns", "ns", lower, 0, "the same with tc.NewNearStrict and two marks, minus the FIFO rung"},
	{"simnet_flow.completion_us", "us", lower, 0, "host us per fluid completion with 1000 concurrent flows of distinct sizes"},
	{"transport.bulk_kb_ns", "ns", lower, 0, "host ns per KB delivered: one reno conn, 32 x 2 MB, packet fidelity"},
	{"transport.small_msg_us", "us", lower, 0, "host us per message in a request/2 KB-reply ping-pong"},
	{"httpsim.req_us", "us", lower, 0, "host us per Client.Do <-> Server exchange, 2 KB body"},
	{"httpsim.req_self_us", "us", lower, 0, "httpsim.req_us minus its two transport messages"},
	{"mesh.hop_us", "us", lower, 0, "host us per extra chain hop: slope between BuildChain depth 1 and 16"},
	{"mesh.hop_self_us", "us", lower, 0, "mesh.hop_us minus httpsim.req_us"},
	{"ctrlplane.push_us", "us", lower, 0, "host us per push: NewServer over a zero-latency Transport, 1000 subscribers, 100 SetResource rounds"},
	{"cluster.pod_setup_us", "us", lower, 0, "host us per AddPod + InjectSidecar, 2000 pods"},
	{"hdr.record_ns", "ns", lower, 0, "host ns per Histogram.Record"},
}

// countDefs are exact work counts and simulated statistics, read
// through the layers' accessors after the traced rep. Counters are
// differences across the measure phase.
var countDefs = []metricDef{
	{"simnet_sched.events", "count", lower, 0, "scheduler events in the measure phase"},
	{"simnet_sched.event_wall_ns", "ns", lower, 0, "untraced wall_s / events"},
	{"simnet_link.tx_packets", "count", lower, 0, "packets serialised, all NICs"},
	{"simnet_link.tx_mb", "MB", lower, 0, "bytes serialised, all NICs"},
	{"simnet_link.drops", "count", lower, 0, "packets dropped at enqueue, all NICs"},
	{"simnet_flow.started", "count", lower, 0, "fluid flows started"},
	{"simnet_flow.demoted", "count", lower, 0, "fluid flows demoted to packets"},
	{"simnet_flow.recomputes", "count", lower, 0, "max-min recomputes"},
	{"simnet_flow.peak_active", "count", lower, 0, "most fluid flows active at once"},
	{"tc.bottleneck_util", "ratio", higher, 0, "ratings uplink bytes over capacity across the measure phase"},
	{"tc.bottleneck_drops", "count", lower, 0, "drops at the ratings uplink"},
	{"tc.qwait_high_p99_us", "sim_us", lower, 0, "p99 queue wait of high-mark packets at the ratings uplink"},
	{"tc.qwait_low_p99_us", "sim_us", lower, 0, "p99 queue wait of the other packets at the ratings uplink"},
	{"transport.conns", "count", lower, 0, "connections open at the end of the rep, all hosts"},
	{"transport.retransmits", "count", lower, 0, "retransmitted segments on the connections bench/ dialled"},
	{"transport.rto_timeouts", "count", lower, 0, "retransmission timeouts on those connections"},
	{"transport.fluid_msgs", "count", higher, 0, "messages those connections carried as fluid"},
	{"transport.fluid_demotions", "count", lower, 0, "fluid messages demoted on those connections"},
	{"mesh.requests", "count", lower, 0, "mesh_requests_total, all labels"},
	{"mesh.retries", "count", lower, 0, "mesh_retries_total, all labels"},
	{"mesh.hop_p50_us", "sim_us", lower, 0, "median outbound mesh_request_duration, all services"},
	{"mesh.hop_p99_us", "sim_us", lower, 0, "p99 outbound mesh_request_duration, all services"},
	{"trace.spans", "count", lower, 0, "spans the tracer recorded"},
	{"trace.crit_self_ms.gateway", "sim_ms", lower, 0, "mean critical-path self time of primary-class traces at the gateway"},
	{"trace.crit_self_ms.frontend", "sim_ms", lower, 0, "the same at frontend"},
	{"trace.crit_self_ms.reviews", "sim_ms", lower, 0, "the same at reviews"},
	{"trace.crit_self_ms.ratings", "sim_ms", lower, 0, "the same at ratings"},
	{"trace.crit_self_ms.details", "sim_ms", lower, 0, "the same at details"},
	{"ctrlplane.pushes_delta", "count", lower, 0, "delta updates handed to the transport"},
	{"ctrlplane.pushes_full", "count", lower, 0, "full-state updates handed to the transport"},
	{"ctrlplane.wire_mb", "MB", lower, 0, "encoded size of every push"},
	{"ctrlplane.push_timeouts", "count", lower, 0, "pushes that saw no reply in time"},
	{"ctrlplane.resyncs", "count", lower, 0, "full updates sent to recover a desynced subscriber"},
	{"ctrlplane.useful_push_ratio", "ratio", higher, 0, "acks / pushes"},
	{"ctrlplane.peak_inflight", "count", lower, 0, "most pushes in the transport at once"},
	{"ctrlplane.max_lag", "count", lower, 0, "widest server-to-subscriber version gap"},
	{"ctrlplane.converge_ms", "sim_ms", lower, 0, "control-plane restart until no subscriber is unsynced"},
	{"core.ls_p99_gain_x", "x", higher, 0, "baseline-arm LS p99 / optimised LS p99: the paper's gain, at 40 RPS"},
	{"core.li_p99_cost_pct", "%", lower, 0, "optimised LI p99 over the baseline arm's, percent: the paper's cost"},
	{"cluster.pods", "count", lower, 0, "pods in the cluster"},
	{"runtime.gc_cycles", "count", lower, 0, "GC cycles in the measure phase"},
	{"runtime.gc_pause_ms", "ms", lower, 0, "stop-the-world pause total in the measure phase"},
	{"runtime.cpu_s", "s", lower, 0, "user+system CPU time of the measure phase (getrusage)"},
	{"runtime.peak_rss_mb", "MB", lower, 0, "peak resident set of the process so far"},
	{"bench.wall_iqr_pct", "%", lower, 0, "quartile distance of wall_s over this run's untraced reps, percent of the median"},
	{"bench.trace_overhead_pct", "%", lower, 0, "traced rep's wall_s over the untraced median, percent"},
}

// perLayer is every per-layer metric, in the order -list prints them.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "share", lower, 0, "share of CPU-profile samples whose nearest repo frame is in " + l})
	}
	for _, l := range layers {
		if l != "runtime_gc" {
			defs = append(defs, metricDef{l + ".alloc_share", "share", lower, 0, "share of sampled allocated objects whose nearest repo frame is in " + l})
		}
	}
	defs = append(defs, ladderDefs...)
	return append(defs, countDefs...)
}

// printList is -list: every metric with unit, direction and bound.
func printList(w io.Writer) {
	fmt.Fprintln(w, "kind\tname\tunit\tbetter\tbound\tmeaning")
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload\t%s\t-\t-\t-\t%s\n", wl.name, wl.why)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end_to_end\t%s\t%s\t%s\t%g\t%s\n", d.name, d.unit, d.better, d.bound, d.meaning)
	}
	for _, d := range perLayer() {
		fmt.Fprintf(w, "per_layer\t%s\t%s\t%s\t-\t%s\n", d.name, d.unit, d.better, d.meaning)
	}
}
