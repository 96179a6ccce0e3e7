package tc

import (
	"meshlayer/internal/simnet"
)

// NearStrictConfig parameterizes the paper's §4.3 discipline: high-mark
// packets get strict priority over the rest, but are capped at a share
// of the link rate so the low class cannot starve completely.
type NearStrictConfig struct {
	// LinkRate is the rate of the link the qdisc feeds, bits/s.
	LinkRate int64
	// HighShare is the fraction of LinkRate granted to the high class,
	// e.g. 0.95 for the paper's "up to 95% of bandwidth". Values outside
	// (0, 1] are rejected.
	HighShare float64
}

// NewNearStrict composes PRIO + TBF into "nearly-strict prioritization
// (up to HighShare of bandwidth)": the high band is served first
// whenever it is within its shaped rate; the low band gets the line
// whenever the high band is empty or throttled. Packets marked
// simnet.MarkHigh or above are the high class; each band is a FIFO of
// the default limit.
func NewNearStrict(cfg NearStrictConfig, clock Clock) *Prio {
	if cfg.LinkRate <= 0 {
		panic("tc: NearStrict needs a positive link rate")
	}
	if cfg.HighShare <= 0 || cfg.HighShare > 1 {
		panic("tc: NearStrict HighShare must be in (0,1]")
	}
	highRate := int64(float64(cfg.LinkRate) * cfg.HighShare)
	high := NewTBF(highRate, 20*simnet.MTU, simnet.NewFIFO(0), clock)
	return NewPrio(simnet.MarkHigh, high, simnet.NewFIFO(0))
}
