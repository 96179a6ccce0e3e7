// Package tc implements Linux-tc-style traffic control for simulated
// NICs: the paper's nearly-strict priority discipline and the RED and
// CoDel AQMs.
//
// The cross-layer prioritization case study (§4.3 of the paper) installs
// "nearly-strict prioritization (up to 95% of bandwidth)" on the
// sidecar's virtual interface; NearStrict is exactly that discipline: a
// high-class FIFO behind a token bucket, served before a low-class FIFO.
package tc

import "time"

// Clock supplies the current simulated time to shaping disciplines.
// Pass scheduler.Now.
type Clock func() time.Duration
