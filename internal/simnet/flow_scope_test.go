package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Component-scoped recompute against its oracle. recompute re-shares
// only the connected component(s) around the flows that came or went;
// the tests below hold it, after every refresh of randomly driven
// engines, to the whole-set fill it replaced.

// oracleShares is the whole-set recompute the engine ran before it was
// scoped, kept as the reference: progressive filling over every active
// flow, one round per bottleneck level, same arithmetic in the same
// (flow id, path position) order. Its scratch lives in maps so it runs
// beside the engine without touching the NIC fields under test.
func oracleShares(flows []*fluidFlow) map[FlowID]float64 {
	rate := make(map[FlowID]float64, len(flows))
	frozen := make(map[FlowID]bool, len(flows))
	residual := map[*NIC]float64{}
	cnt := map[*NIC]int{}
	var nics []*NIC
	for _, f := range flows {
		rate[f.id] = 0
		for _, nic := range f.path {
			if _, seen := residual[nic]; !seen {
				residual[nic] = nic.fluidLine()
				nics = append(nics, nic)
			}
			cnt[nic]++
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		inc := math.MaxFloat64
		for _, nic := range nics {
			if cnt[nic] > 0 {
				if s := residual[nic] / float64(cnt[nic]); s < inc {
					inc = s
				}
			}
		}
		if inc == math.MaxFloat64 {
			break
		}
		if inc > 0 {
			for _, f := range flows {
				if !frozen[f.id] {
					rate[f.id] += inc
				}
			}
			for _, nic := range nics {
				if cnt[nic] > 0 {
					residual[nic] -= inc * float64(cnt[nic])
					if residual[nic] < 0 {
						residual[nic] = 0
					}
				}
			}
		}
		froze := 0
		for _, f := range flows {
			if frozen[f.id] {
				continue
			}
			for _, nic := range f.path {
				if residual[nic] <= satEps*nic.fluidLine() {
					frozen[f.id] = true
					froze++
					for _, m := range f.path {
						cnt[m]--
					}
					break
				}
			}
		}
		if froze == 0 {
			break
		}
		unfrozen -= froze
	}
	return rate
}

// checkShares refreshes the engine and holds it to the oracle: every
// flow's rate within 1e-12 relative, every NIC's fluidRate exactly the
// id-ordered sum of the rates crossing it (so exactly 0 with no flow),
// and no scope scratch left behind.
func checkShares(t *testing.T, e *FlowEngine, nics []*NIC, when string) {
	t.Helper()
	e.flushIfDirty()
	want := oracleShares(e.flows)
	sums := map[*NIC]float64{}
	for _, f := range e.flows {
		if w := want[f.id]; math.Abs(f.rate-w) > 1e-12*w {
			t.Fatalf("%s: flow %d rate %v, oracle %v", when, f.id, f.rate, w)
		}
		if f.scoped {
			t.Fatalf("%s: flow %d left scoped", when, f.id)
		}
		for _, nic := range f.path {
			sums[nic] += f.rate
		}
	}
	for i, nic := range nics {
		for _, n := range []*NIC{nic, nic.peer} {
			if n.fluidRate != sums[n] {
				t.Fatalf("%s: NIC %d fluidRate %v, id-ordered sum of its %d-flow engine %v", when, i, n.fluidRate, len(e.flows), sums[n])
			}
			if n.fluidSeen {
				t.Fatalf("%s: NIC %d left in scope", when, i)
			}
		}
	}
	if len(e.nics) != 0 {
		t.Fatalf("%s: %d NICs left in the scope list", when, len(e.nics))
	}
}

// scopeNet is a flow-fidelity network and a pool of NICs to build paths
// from. The engine shares by NIC identity alone, so a path here is any
// list of pool NICs: the topologies below are sharing patterns, not
// routed graphs.
func scopeNet(rates []int64) (*Scheduler, *FlowEngine, []*NIC) {
	s := NewScheduler()
	net := NewNetwork(s)
	net.SetFidelity(FidelityFlow)
	nics := make([]*NIC, len(rates))
	for i, r := range rates {
		a, b := net.AddNode(fmt.Sprintf("a%d", i)), net.AddNode(fmt.Sprintf("b%d", i))
		nics[i] = net.Connect(a, b, LinkConfig{Rate: r, Delay: time.Microsecond}).a
	}
	return s, net.FlowEngine(), nics
}

func randRates(rng *rand.Rand, n int) []int64 {
	rates := make([]int64, n)
	for i := range rates {
		rates[i] = (1 + rng.Int63n(1000)) * Mbps
	}
	return rates
}

// scopeTopologies are the sharing patterns the random walk runs over.
// Each returns the pool size and a path generator.
var scopeTopologies = []struct {
	name string
	nics int
	path func(rng *rand.Rand, nics []*NIC) []*NIC
}{
	// Disjoint stars: 6 collectors, 8 private sender NICs each.
	{"stars", 6 * 9, func(rng *rand.Rand, nics []*NIC) []*NIC {
		star := rng.Intn(6) * 9
		return []*NIC{nics[star+1+rng.Intn(8)], nics[star]}
	}},
	// A chain of overlapping paths: flow i covers links i..i+1 (or
	// i..i+2), ids in random order along it, so growing a scope from one
	// end takes as many marking passes as there are id inversions.
	{"chain", 24, func(rng *rand.Rand, nics []*NIC) []*NIC {
		i := rng.Intn(len(nics) - 2)
		return nics[i : i+2+rng.Intn(2)]
	}},
	// Two stars and the odd flow crossing both collectors: its arrival
	// merges two components, its departure splits them again.
	{"bridge", 2 * 9, func(rng *rand.Rand, nics []*NIC) []*NIC {
		if rng.Intn(8) == 0 {
			return []*NIC{nics[0], nics[9]}
		}
		star := rng.Intn(2) * 9
		return []*NIC{nics[star+1+rng.Intn(8)], nics[star]}
	}},
	// No structure: one to three NICs out of twelve.
	{"random", 12, func(rng *rand.Rand, nics []*NIC) []*NIC {
		path := make([]*NIC, 1+rng.Intn(3))
		for i, j := range rng.Perm(len(nics))[:len(path)] {
			path[i] = nics[j]
		}
		return path
	}},
}

// TestFlowScopeMatchesWholeSetOracle drives engines with random
// Start / Cancel / completion / demoteNIC / noteImpaired sequences and
// checks every refresh against the whole-set oracle.
func TestFlowScopeMatchesWholeSetOracle(t *testing.T) {
	seeds, ops := 12, 400
	if testing.Short() {
		seeds, ops = 3, 200
	}
	for _, topo := range scopeTopologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			for seed := 1; seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				s, e, nics := scopeNet(randRates(rng, topo.nics))
				ended := 0 // onDone + onDemote callbacks run
				var ids []FlowID
				for op := 0; op < ops; op++ {
					when := fmt.Sprintf("seed %d op %d", seed, op)
					switch k := rng.Intn(10); {
					case k < 4:
						// Bursts start at one instant and share one flush.
						for n := 1 + rng.Intn(3); n > 0; n-- {
							ids = append(ids, e.Start(topo.path(rng, nics), 1000+rng.Int63n(1_000_000),
								func() { ended++ }, func() { ended++ }))
						}
						when += " start"
					case k < 5 && len(ids) > 0:
						e.Cancel(ids[rng.Intn(len(ids))]) // often already gone: a no-op
						when += " cancel"
					case k < 8:
						s.Step() // a flush, a completion or a deferred onDemote
						when += " step"
					case k < 9:
						e.demoteNIC(nics[rng.Intn(len(nics))])
						when += " demoteNIC"
					default:
						nic := nics[rng.Intn(len(nics))]
						if rng.Intn(2) == 0 {
							nic = nic.peer // the reverse direction carries the ACKs
						}
						e.noteImpaired(nic)
						when += " noteImpaired"
					}
					checkShares(t, e, nics, when)
				}
				s.Run()
				checkShares(t, e, nics, fmt.Sprintf("seed %d drained", seed))
				st := e.Stats()
				if e.Active() != 0 || st.Completed+st.Demoted+st.Cancelled != st.Started {
					t.Fatalf("seed %d: %d flows still active, stats %+v", seed, e.Active(), st)
				}
				if uint64(ended) != st.Completed+st.Demoted {
					t.Fatalf("seed %d: %d terminal callbacks, stats %+v", seed, ended, st)
				}
			}
		})
	}
}

// TestFlowScopeGrowsOverManyPasses pins the fixed point: a chain whose
// flow ids descend away from the seed gains one flow per marking pass.
func TestFlowScopeGrowsOverManyPasses(t *testing.T) {
	const links = 8
	_, e, nics := scopeNet([]int64{100 * Mbps, 90 * Mbps, 80 * Mbps, 70 * Mbps, 60 * Mbps, 50 * Mbps, 40 * Mbps, 30 * Mbps})
	// Flow ids 1..7 cover links (6,7), (5,6), ... (0,1): the far end first.
	for i := links - 2; i >= 0; i-- {
		e.Start(nics[i:i+2], 1<<20, nil, nil)
	}
	checkShares(t, e, nics, "chain built")
	// A second flow on link 0 alone touches only the last-started flow
	// directly; every other one is reached through a neighbour with a
	// higher id, one pass each.
	extra := e.Start(nics[:1], 1<<20, nil, nil)
	checkShares(t, e, nics, "flow added at the near end")
	e.Cancel(extra)
	checkShares(t, e, nics, "and cancelled")
	// An island beside the chain must not stop the growth early.
	_, e2, nics2 := scopeNet([]int64{100 * Mbps, 90 * Mbps, 80 * Mbps, 70 * Mbps, 10 * Mbps})
	e2.Start(nics2[4:], 1<<20, nil, nil)
	for i := 2; i >= 0; i-- {
		e2.Start(nics2[i:i+2], 1<<20, nil, nil)
	}
	checkShares(t, e2, nics2, "island and chain built")
	e2.Start(nics2[:1], 1<<20, nil, nil)
	checkShares(t, e2, nics2, "flow added beside an island")
}

// TestFlowScopeMergeAndSplit: a flow across two stars' collectors makes
// them one component; once it leaves they are two again, and a change
// in one no longer reaches the other — its rates are not just equal to
// the oracle's but the very floats they were.
func TestFlowScopeMergeAndSplit(t *testing.T) {
	rates := make([]int64, 10)
	for i := range rates {
		rates[i] = 10 * Gbps
	}
	rates[0], rates[5] = 300*Mbps, 700*Mbps // the two collectors
	_, e, nics := scopeNet(rates)
	var left, right []FlowID
	for i := 1; i <= 4; i++ {
		left = append(left, e.Start([]*NIC{nics[i], nics[0]}, 1<<20, nil, nil))
		right = append(right, e.Start([]*NIC{nics[5+i], nics[5]}, 1<<20, nil, nil))
	}
	checkShares(t, e, nics, "two stars")
	rightRate := func() float64 { r, _ := e.Rate(right[0]); return r }
	alone := rightRate()

	bridge := e.Start([]*NIC{nics[0], nics[5]}, 1<<20, nil, nil)
	checkShares(t, e, nics, "bridged")
	if rightRate() >= alone {
		t.Fatalf("bridge flow did not take from the right star: %v -> %v", alone, rightRate())
	}
	e.Cancel(bridge)
	checkShares(t, e, nics, "bridge gone")
	if rightRate() != alone {
		t.Fatalf("right star's share after the split %v, before the merge %v", rightRate(), alone)
	}

	// Poison the right star's rates: a recompute that still reached it
	// would overwrite them.
	for _, f := range e.flows {
		if f.id == right[0] {
			f.rate = -1
		}
	}
	e.Cancel(left[0])
	e.flushIfDirty()
	if rightRate() != -1 {
		t.Fatalf("a departure in the left star re-shared the right one (rate %v)", rightRate())
	}
	if r, _ := e.Rate(left[1]); r != nics[0].fluidLine()/3 {
		t.Fatalf("left star's survivors share %v, want a third of %v", r, nics[0].fluidLine())
	}
}

// TestFlowScopeEmptiedNICReadsZero: the last flow leaving a NIC leaves
// it at exactly 0, which is what switches packet serialization back to
// the unshared formula.
func TestFlowScopeEmptiedNICReadsZero(t *testing.T) {
	s, e, nics := scopeNet([]int64{Gbps, Gbps, Gbps})
	keep := e.Start(nics[:1], 1<<30, nil, nil)
	id := e.Start(nics[1:], 1<<30, nil, nil)
	checkShares(t, e, nics, "two flows")
	if nics[1].fluidRate == 0 || nics[2].fluidRate == 0 {
		t.Fatal("flow carries no rate")
	}
	e.Cancel(id)
	checkShares(t, e, nics, "cancelled")
	id = e.Start(nics[1:], 1000, nil, nil)
	s.Run() // completes; keep is cancelled below
	_ = id
	if nics[1].fluidRate != 0 || nics[2].fluidRate != 0 {
		t.Fatalf("emptied NICs read %v, %v", nics[1].fluidRate, nics[2].fluidRate)
	}
	e.Cancel(keep)
	checkShares(t, e, nics, "drained")
}

// TestFlowCompleteEpsAcrossComponents pins the batching rule scoping
// must not touch: any flow within completeEps at a timer fire completes
// in that event, whichever component armed the timer. a drains at
// exactly 1000 ns; b, on a link one bit per second slower and sharing
// nothing with a, is 1.25e-7 bytes short then and would need a second
// event at 1001 ns if completions were filtered per component.
func TestFlowCompleteEpsAcrossComponents(t *testing.T) {
	s, e, nics := scopeNet([]int64{8_000_000, 7_999_999})
	var aAt, bAt time.Duration
	e.Start(nics[:1], 1, func() { aAt = s.Now() }, nil)
	e.Start(nics[1:], 1, func() { bAt = s.Now() }, nil)
	s.Run()
	if aAt != 1000 || bAt != 1000 {
		t.Fatalf("completions at %d ns and %d ns, want both in the 1000 ns event", aAt, bAt)
	}
	// One flush for the two same-instant starts, one timer fire.
	if s.Steps() != 2 || e.Stats().Recomputes != 2 {
		t.Fatalf("%d events, %d recomputes; want 2 and 2", s.Steps(), e.Stats().Recomputes)
	}
}

// TestFlowCompletionAllocs: a steady-state completion in a
// many-component engine allocates nothing — the completion batch, the
// scope's NIC list and its flow list are engine-owned scratch.
func TestFlowCompletionAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, e, nics := scopeNet(randRates(rng, 4*9))
	for i := 0; i < 400; i++ {
		star := i % 4 * 9
		e.Start([]*NIC{nics[star+1+i%8], nics[star]}, 1_000_000+rng.Int63n(1_000_000), nil, nil)
	}
	for e.Stats().Completed < 50 {
		s.Step()
	}
	before := e.Stats().Completed
	allocs := testing.AllocsPerRun(200, func() { s.Step() })
	if after := e.Stats().Completed; after < before+200 {
		t.Fatalf("only %d completions in 201 steps: the run did not measure completions", after-before)
	}
	if allocs != 0 {
		t.Fatalf("a completion allocates %v objects, want 0", allocs)
	}
}
