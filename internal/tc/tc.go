// Package tc implements Linux-tc-style traffic control for simulated
// NICs: the classful PRIO qdisc, whose one mark threshold splits its
// bands, a token-bucket shaper (TBF), and the RED and CoDel AQMs.
//
// The cross-layer prioritization case study (§4.3 of the paper) installs
// "nearly-strict prioritization (up to 95% of bandwidth)" on the
// sidecar's virtual interface; NewNearStrict builds exactly that
// discipline from a PRIO qdisc whose high band is shaped by a TBF.
package tc

import "time"

// Clock supplies the current simulated time to shaping disciplines.
// Pass scheduler.Now.
type Clock func() time.Duration
