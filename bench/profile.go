package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// A stackSample is one entry of `go tool pprof -traces`: a value and
// the stack it was charged to, leaf first.
type stackSample struct {
	value float64
	stack []string
}

// pprofTraces runs `go tool pprof -traces` on a profile the benchmark
// wrote and returns its samples. base, if set, is subtracted first (the
// allocation profile is cumulative since process start).
func pprofTraces(sampleIndex, base, profile string) ([]stackSample, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	if base != "" {
		args = append(args, "-base="+base)
	}
	cmd := exec.Command("go", append(args, profile)...)
	env, err := goToolEnv()
	if err != nil {
		return nil, err
	}
	cmd.Env = env
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", profile, err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(&out)
}

// parseTraces reads the -traces text form:
//
//	-----------+-------------------------------------------------------
//	     bytes:  48B                     (optional label lines)
//	      10ms   runtime.mallocgc        (value, leaf frame)
//	             meshlayer/internal/...  (callers, root last)
//
// Header lines before the first separator are skipped.
func parseTraces(r *bytes.Buffer) ([]stackSample, error) {
	var samples []stackSample
	var cur *stackSample
	started := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			started = true
			cur = nil
			continue
		}
		if !started {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if cur == nil {
			if strings.HasSuffix(fields[0], ":") {
				continue // a label of the sample that follows
			}
			v, err := parseValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: %q: %v", line, err)
			}
			samples = append(samples, stackSample{value: v})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
		}
		if len(fields) > 0 {
			// Function names may hold spaces ("func(x int) ..." in
			// generic instantiations); the frame is the rest of the line.
			cur.stack = append(cur.stack, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
		}
	}
	return samples, sc.Err()
}

// valueUnits scales pprof's printed units to a common base (ns, bytes,
// or a bare count): only shares of a profile's total are reported, so
// the base itself does not matter.
var valueUnits = []struct {
	suffix string
	scale  float64
}{
	{"hrs", 3600e9}, {"min", 60e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9},
	{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
}

func parseValue(s string) (float64, error) {
	for _, u := range valueUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err == nil {
				return v * u.scale, nil
			}
		}
	}
	return strconv.ParseFloat(s, 64)
}

const repoPrefix = "meshlayer/internal/"

// layerOfFrame maps one function name to a layer, or "" for a frame
// outside the repo (runtime, stdlib).
func layerOfFrame(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		if strings.HasPrefix(fn, "meshlayer.") {
			return "other" // root-package scenario glue
		}
		return ""
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	switch pkg {
	case "simnet":
		switch {
		case strings.HasPrefix(sym, "(*Scheduler)"), strings.HasPrefix(sym, "Timer"):
			return "simnet_sched"
		case strings.HasPrefix(sym, "(*FlowEngine)"):
			return "simnet_flow"
		}
		return "simnet_link"
	case "mesh":
		if strings.HasPrefix(sym, "(*distributor)") || strings.HasPrefix(sym, "(*federation)") {
			return "mesh_distrib"
		}
		return "mesh"
	}
	for _, l := range layers {
		if l == pkg {
			return pkg
		}
	}
	return "other"
}

// gcRoots are the runtime entry points of background collection.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOfStack charges a sample to the first repo frame met walking up
// from the leaf — not to the Scheduler.Step every simulation stack has
// at its root — so allocator, map and stdlib time lands on the layer
// that asked for it. A stack with no repo frame is background GC or
// "other" (runtime scheduler, profiler signal handling).
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOfFrame(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// layerShares sums samples by layer and normalises to 1. gc selects
// whether runtime_gc is its own layer (CPU) or part of other
// (allocations: the collector does not allocate on the heap it serves).
func layerShares(samples []stackSample, gc bool) map[string]float64 {
	shares := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		if s.value <= 0 {
			continue
		}
		l := layerOfStack(s.stack)
		if l == "runtime_gc" && !gc {
			l = "other"
		}
		shares[l] += s.value
		total += s.value
	}
	if total > 0 {
		for _, l := range layers {
			shares[l] /= total
		}
	}
	return shares
}

// goToolEnv is the environment of the `go tool` child, with the go
// command's telemetry switched off: given a config directory it has
// not seen today, `go` starts a detached telemetry child that outlives
// it, and the benchmark may leave no process behind. GOTELEMETRY
// cannot be set from the environment; the mode file is the only switch.
func goToolEnv() ([]string, error) {
	cfg, err := filepath.Abs(filepath.Join(".bench_build", "config"))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg, "go", "telemetry")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "mode"), []byte("off\n"), 0o644); err != nil {
		return nil, err
	}
	return append(os.Environ(), "XDG_CONFIG_HOME="+cfg), nil
}

// profDir is where the traced rep's profiles live while pprof reads
// them: inside the working directory, which the benchmark contract
// confines all writes to.
func profDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "prof-")
}
