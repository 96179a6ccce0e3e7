package meshlayer

import (
	"fmt"
	"runtime"
	"time"

	"meshlayer/internal/simnet"
)

// ---------- E16: simulation engine throughput (meta-experiment) ----------

// EngineBench holds the E16 measurements: raw engine throughput (the
// ceiling on simulated traffic for every other experiment) and the
// wall-clock of a reference sweep with and without the parallel worker
// pool. Unlike E1–E15 this measures the simulator itself, so the
// numbers are host-dependent and excluded from `-exp all` and the
// deterministic goldens.
type EngineBench struct {
	// Scheduler hot path: a steady population of self-rescheduling
	// timers, so each event is one schedule + one heap pop + dispatch.
	SchedEvents    int
	SchedNsPerOp   float64
	SchedAllocsPer float64

	// Packet hot path: inject -> route -> qdisc -> serialize ->
	// propagate -> deliver over one fast link with a fixed window.
	PktPackets   int
	PktNsPerOp   float64
	PktAllocsPer float64

	// Reference sweep (two fig4 levels, short windows) wall-clock, run
	// sequentially and at the configured parallelism.
	SweepSeqSec float64
	SweepParSec float64
	Parallelism int
}

// measured runs fn and returns its wall-clock plus the number of heap
// allocations it performed (cumulative mallocs are GC-independent).
func measured(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //meshvet:allow walltime host-side harness timing, never feeds sim state or goldens
	fn()
	elapsed := time.Since(start) //meshvet:allow walltime host-side harness timing, never feeds sim state or goldens
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

// RunEngineBench measures engine throughput. events and packets default
// to 2M and 500k; the sweep windows are fixed so the sequential and
// parallel runs do identical simulation work.
func RunEngineBench(events, packets int) EngineBench {
	events = orDefault(events, 2_000_000)
	packets = orDefault(packets, 500_000)
	var out EngineBench
	out.SchedEvents, out.PktPackets = events, packets
	out.Parallelism = MaxParallel

	// Scheduler hot path.
	{
		s := simnet.NewScheduler()
		const population = 1024
		scheduled := 0
		var tick func()
		tick = func() {
			if scheduled < events {
				scheduled++
				s.After(time.Duration(scheduled%13+1)*time.Microsecond, tick)
			}
		}
		for i := 0; i < population && scheduled < events; i++ {
			scheduled++
			s.After(time.Duration(i%13+1)*time.Microsecond, tick)
		}
		elapsed, mallocs := measured(s.Run)
		out.SchedNsPerOp = float64(elapsed.Nanoseconds()) / float64(events)
		out.SchedAllocsPer = float64(mallocs) / float64(events)
	}

	// Packet hot path.
	{
		s := simnet.NewScheduler()
		net := simnet.NewNetwork(s)
		na, nb := net.AddNode("a"), net.AddNode("b")
		net.Connect(na, nb, simnet.LinkConfig{Rate: 15 * simnet.Gbps, Delay: 10 * time.Microsecond})
		flow := simnet.FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: simnet.ProtoUDP}
		const window = 64
		sent, delivered := 0, 0
		var send func()
		send = func() {
			for sent < packets && sent-delivered < window {
				p := net.AllocPacket()
				p.Flow = flow
				p.Size = simnet.MTU
				na.Inject(p)
				sent++
			}
		}
		nb.SetDeliver(func(*simnet.Packet) { delivered++; send() })
		send()
		elapsed, mallocs := measured(s.Run)
		out.PktNsPerOp = float64(elapsed.Nanoseconds()) / float64(packets)
		out.PktAllocsPer = float64(mallocs) / float64(packets)
	}

	// Reference sweep, sequential then parallel. The sequential arm pins
	// Workers on its own sweep rather than toggling the MaxParallel
	// global, so -parallel (and any concurrent sweep) is unaffected.
	sweep := func(workers int) {
		RunSweep(SweepConfig{
			RPSLevels: []float64{15, 35},
			Opt:       PaperOptimizations(),
			Seed:      3,
			Warmup:    time.Second,
			Measure:   2 * time.Second,
			Workers:   workers,
		})
	}
	seqT, _ := measured(func() { sweep(1) })
	parT, _ := measured(func() { sweep(0) })
	out.SweepSeqSec = seqT.Seconds()
	out.SweepParSec = parT.Seconds()
	return out
}

// FormatEngine renders the E16 table.
func FormatEngine(b EngineBench) string {
	t := newTable("metric", "value")
	t.row("scheduler events", fmt.Sprint(b.SchedEvents))
	t.row("scheduler ns/event", fmt.Sprintf("%.1f", b.SchedNsPerOp))
	t.row("scheduler events/sec", fmt.Sprintf("%.2fM", 1e3/b.SchedNsPerOp))
	t.row("scheduler allocs/event", fmt.Sprintf("%.3f", b.SchedAllocsPer))
	t.row("packet-path packets", fmt.Sprint(b.PktPackets))
	t.row("packet-path ns/packet", fmt.Sprintf("%.1f", b.PktNsPerOp))
	t.row("packet-path allocs/packet", fmt.Sprintf("%.3f", b.PktAllocsPer))
	t.row("sweep wall-clock (sequential)", fmt.Sprintf("%.2fs", b.SweepSeqSec))
	t.row(fmt.Sprintf("sweep wall-clock (parallel=%d)", b.Parallelism), fmt.Sprintf("%.2fs", b.SweepParSec))
	if b.SweepParSec > 0 {
		t.row("sweep speedup", fmt.Sprintf("%.2fx", b.SweepSeqSec/b.SweepParSec))
	}
	return "E16 — simulation engine throughput (host-dependent; excluded from goldens)\n" + t.String()
}
