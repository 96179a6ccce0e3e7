// Package tc implements Linux-tc-style traffic control for simulated
// NICs: the classful PRIO qdisc, a token-bucket shaper (TBF), the RED
// and CoDel AQMs, and a first-match classifier on packet marks.
//
// The cross-layer prioritization case study (§4.3 of the paper) installs
// "nearly-strict prioritization (up to 95% of bandwidth)" on the
// sidecar's virtual interface; NewNearStrict builds exactly that
// discipline from a PRIO qdisc whose high band is shaped by a TBF.
package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// Clock supplies the current simulated time to shaping disciplines.
// Pass scheduler.Now.
type Clock func() time.Duration

// Filter matches packets to a class: a packet matches when its mark
// is at least MinMark (a zero MinMark matches every packet). Filters
// are evaluated in order; the first match wins.
type Filter struct {
	MinMark simnet.Mark
	// Class is the index of the target class/band.
	Class int
}

// Classifier routes packets to class indexes via an ordered filter list.
type Classifier struct {
	Filters []Filter
	// Default is the class for packets matching no filter.
	Default int
}

// Classify returns the class index for p.
func (c *Classifier) Classify(p *simnet.Packet) int {
	for _, f := range c.Filters {
		if p.Mark >= f.MinMark {
			return f.Class
		}
	}
	return c.Default
}
