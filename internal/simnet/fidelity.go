package simnet

import "fmt"

// Fidelity selects how faithfully a Network simulates data transfer.
//
// FidelityPacket is the classic discrete-event packet model: every MTU
// of every transfer is queued, serialized, propagated, and delivered as
// its own events. It is the reference fidelity — byte-exact queueing,
// AQM, and loss behavior — and what NewNetwork builds until
// SetFidelity says otherwise.
//
// FidelityFlow replaces bulk transfers with analytic fluid flows: each
// transfer becomes one flow whose instantaneous rate is the max-min
// fair share of the links it crosses (progressive filling), and whose
// completion is a single scheduled event. Event cost per transfer is
// O(flow arrivals/departures on shared links) instead of O(bytes/MSS).
//
// FidelityHybrid keeps small messages and contended paths on the
// packet model and promotes only large clean-path transfers to fluid
// flows, demoting them back to packets the moment a bottleneck shows
// real packet contention or an impairment appears — queueing behavior
// stays packet-exact exactly where it shapes results.
//
// Every mode is internally deterministic: same seed, same byte-exact
// output, at any sweep parallelism.
type Fidelity uint8

const (
	FidelityPacket Fidelity = iota
	FidelityFlow
	FidelityHybrid
)

// String renders the fidelity's name, as E20's mode column prints it.
func (f Fidelity) String() string {
	switch f {
	case FidelityPacket:
		return "packet"
	case FidelityFlow:
		return "flow"
	case FidelityHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("fidelity(%d)", uint8(f))
	}
}

// SetFidelity overrides the network's fidelity, attaching (or
// dropping) the flow engine as needed. It must be called before any
// traffic flows: switching modes mid-simulation would strand active
// fluid flows.
func (n *Network) SetFidelity(f Fidelity) {
	n.fidelity = f
	if f == FidelityPacket {
		n.flowEng = nil
		return
	}
	if n.flowEng == nil {
		n.flowEng = newFlowEngine(n)
	}
}

// FlowEngine returns the network's fluid-flow engine, or nil in packet
// fidelity.
func (n *Network) FlowEngine() *FlowEngine { return n.flowEng }
