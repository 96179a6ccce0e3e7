package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// quickRun runs the command as the driver does and decodes its last
// line.
func quickRun(t *testing.T, args ...string) (report string, last struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]metricValue
}) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-quick", "-reps", "1"}, args...), &out, &errb); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return out.String(), last
}

func digestOf(t *testing.T, report string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if d, ok := strings.CutPrefix(line, "sim_digest "); ok {
			return d
		}
	}
	t.Fatalf("no sim_digest in\n%s", report)
	return ""
}

// Every workload is a pure function of its seed: two runs agree on the
// digest, another seed gives other inputs, and no operation fails.
// mixed_paper, the slowest under -race, gets the same check from the
// traced run of TestEmittedMatchesDeclared.
func TestQuickRunsRepeat(t *testing.T) {
	for _, w := range workloads[1:] {
		first, res := quickRun(t, "-workload", w.name, "-seed", "3")
		second, _ := quickRun(t, "-workload", w.name, "-seed", "3")
		if a, b := digestOf(t, first), digestOf(t, second); a != b {
			t.Errorf("%s: sim_digest %s then %s with one seed", w.name, a, b)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkEmitted(t, res.Metrics, endToEnd)
		for _, m := range endToEnd {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v: an end-to-end metric is never 0", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
	}
	a, _ := quickRun(t, "-workload", "bulk_fanin", "-seed", "3")
	b, _ := quickRun(t, "-workload", "bulk_fanin", "-seed", "4")
	if digestOf(t, a) == digestOf(t, b) {
		t.Error("seeds 3 and 4 give one digest: the seed does not reach the inputs")
	}
}

type declared struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// BENCHMARK.json and the code declare the same workloads and metrics.
func TestDeclaredMatchesBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, d.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := d.EndToEnd[i]
		if j.Bound == nil || j.Name != m.name || j.Unit != m.unit || j.Better != m.better || *j.Bound != m.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, j, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
	}
	pl := perLayer()
	if len(d.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(d.PerLayer), len(pl))
	}
	seen := map[string]bool{}
	for i, m := range pl {
		if j := d.PerLayer[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, j, m)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile("^[A-Za-z0-9_/%.-]{1,16}$")
	for _, m := range append(append([]metricDef(nil), endToEnd...), pl...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q is malformed", m.name, m.unit)
		}
		if m.better != lower && m.better != higher {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
}

// checkEmitted holds a run's metrics against the declared set.
func checkEmitted(t *testing.T, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, declared %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.name]
		switch {
		case !ok:
			t.Errorf("%s declared but not emitted", m.name)
		case v.Unit != m.unit:
			t.Errorf("%s emitted in %q, declared in %q", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v", m.name, v.Value)
		}
	}
}

// What a run prints is exactly what is declared, with the declared
// units: the end-to-end set untraced (TestQuickRunsRepeat), the
// per-layer set traced. The traced rep must not disturb the simulation:
// the run fails unless its digest equals the untraced rep's.
func TestEmittedMatchesDeclared(t *testing.T) {
	spans := t.TempDir() + "/spans.jsonl"
	report, traced := quickRun(t, "-workload", "mixed_paper", "-trace", "1", "-spans", spans)
	checkEmitted(t, traced.Metrics, perLayer())
	if !strings.Contains(report, `"digest_stable_over_reps":2,"ok":true`) {
		t.Errorf("the timed and the traced rep did not agree:\n%s", report)
	}
	sum := 0.0
	for _, l := range layers {
		sum += traced.Metrics[l+".cpu_share"].Value
	}
	if (sum < 0.99 || sum > 1.01) && sum != 0 { // 0: the quick measure phase beat the profiler's first tick
		t.Errorf("cpu_share sums to %v\n%s", sum, report)
	}
	for _, name := range []string{"simnet_sched.event_ns", "mesh.hop_us", "simnet_link.tx_packets", "mesh.requests", "trace.crit_self_ms.frontend", "core.ls_p99_gain_x", "runtime.cpu_s"} {
		if traced.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on a traced mixed_paper run", name, traced.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.End < s.Start || s.Parent < -1 || s.Parent >= i {
			t.Errorf("span %d: %+v", i, s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"mixed_paper/rep", "setup", "measure", "ladder", "httpsim.req_us"} {
		if !names[want] {
			t.Errorf("no %q span in %v", want, names)
		}
	}
}

func TestListNamesEveryMetric(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, &out); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !strings.Contains(out.String(), "\t"+m.name+"\t"+m.unit+"\t"+m.better+"\t") {
			t.Errorf("-list lacks %s with its unit and direction", m.name)
		}
	}
}

const cannedTraces = `File: bench
Type: cpu
Time: Sep 26, 2026 at 7:00pm (UTC)
Duration: 3.01s, Total samples = 2.95s (98.01%)
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             runtime.newobject
             meshlayer/internal/simnet.(*Scheduler).After
             meshlayer/internal/transport.(*Conn).armRTO
             meshlayer/internal/simnet.(*Scheduler).Step
             main.runRep
-----------+-------------------------------------------------------
     bytes:  48B
      1.50s   runtime.mapassign_faststr
             meshlayer/internal/httpsim.Header.Set (inline)
             meshlayer/internal/mesh.(*Sidecar).Call
             meshlayer/internal/simnet.(*Scheduler).Step
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.schedule
             runtime.mcall
-----------+-------------------------------------------------------
      40ms   meshlayer/internal/simnet.(*FlowEngine).recompute
             meshlayer/internal/simnet.(*FlowEngine).onTimer
-----------+-------------------------------------------------------
     400ms   meshlayer/internal/mesh.(*distributor).topologyChanged
             meshlayer/internal/cluster.(*Cluster).notifyTopology
`

func TestParseTracesAndAttribution(t *testing.T) {
	samples, err := parseTraces(bytes.NewBufferString(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var values []float64
	for _, s := range samples {
		got = append(got, layerOfStack(s.stack))
		values = append(values, s.value)
	}
	// Nearest repo frame from the leaf: the allocation under After is the
	// scheduler's, not transport's nor the Step at the root; a stack with
	// no repo frame is background GC or other.
	want := []string{"simnet_sched", "httpsim", "runtime_gc", "other", "simnet_flow", "mesh_distrib"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if wantV := []float64{30e6, 1.5e9, 20e6, 10e6, 40e6, 400e6}; !reflect.DeepEqual(values, wantV) {
		t.Errorf("values %v, want %v", values, wantV)
	}
	if samples[1].stack[1] != "meshlayer/internal/httpsim.Header.Set" {
		t.Errorf("inline marker kept: %q", samples[1].stack[1])
	}
	cpu := layerShares(samples, true)
	sum := 0.0
	for _, l := range layers {
		sum += cpu[l]
	}
	if math.Abs(sum-1) > 1e-9 || math.Abs(cpu["httpsim"]-0.75) > 1e-9 || math.Abs(cpu["runtime_gc"]-0.01) > 1e-9 {
		t.Errorf("cpu shares %v sum %v", cpu, sum)
	}
	if alloc := layerShares(samples, false); alloc["runtime_gc"] != 0 || math.Abs(alloc["other"]-0.015) > 1e-9 {
		t.Errorf("alloc shares fold GC into other: %v", alloc)
	}
	for fn, want := range map[string]string{
		"meshlayer/internal/simnet.(*NIC).Send":       "simnet_link",
		"meshlayer/internal/simnet.Timer.Cancel":      "simnet_sched",
		"meshlayer/internal/mesh.(*Gateway).Serve":    "mesh",
		"meshlayer/internal/admission.(*Queue).Offer": "other",
		"meshlayer.(*Scenario).RunFor":                "other",
		"main.buildRPCChain.func1":                    "bench",
		"sort.Strings":                                "",
	} {
		if got := layerOfFrame(fn); got != want {
			t.Errorf("layerOfFrame(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseValueUnits(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 10e6, "1.20s": 1.2e9, "512.02kB": 512.02 * 1024, "48B": 48, "1024": 1024, "3us": 3e3, "2min": 120e9} {
		if got, err := parseValue(in); err != nil || math.Abs(got-want) > 1e-6*want {
			t.Errorf("parseValue(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseValue("fast"); err == nil {
		t.Error("parseValue accepted a word")
	}
}

// A tail percentile is reported only where at least ten samples lie
// beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{10000, 0.99}, {1000, 0.99}, {999, 0.98}, {500, 0.98}, {499, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.50}, {20, 0.50}, {3, 0.50}, {0, 0.50}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var s []time.Duration
	for i := 1000; i >= 1; i-- { // descending: summarise must not rely on order
		s = append(s, time.Duration(i))
	}
	if got := summarise(s); got.n != 1000 || got.p50 != 500 || got.p99 != 990 || got.tailQ != 0.99 {
		t.Errorf("summarise(1..1000) = %+v", got)
	}
	if got := summarise(s[:100]); got.p99 != 990 || got.tailQ != 0.90 { // 1000..901: ten samples beyond 990
		t.Errorf("summarise of 100 samples = %+v", got)
	}
	if got := summarise(nil); got.n != 0 || got.p99 != 0 {
		t.Errorf("summarise(nil) = %+v", got)
	}
}

// The quartiles are Python's statistics.quantiles(values, n=4), which
// is what judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 4, 6, 1},
		{[]float64{2.5, 3.1, 2.9}, 2.5, 2.9, 3.1, 0.6 / 2.9},
		{[]float64{1, 3}, 0.5, 2, 3.5, 1.5},
		{[]float64{4}, 4, 4, 4, 0},
	} {
		q1, m, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := iqrShare(c.in); math.Abs(got-c.wantSpread) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", c.in, got, c.wantSpread)
		}
	}
}
