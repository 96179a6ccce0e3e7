package admission

import "time"

// LimiterConfig tunes the adaptive concurrency limiter. Zero fields
// select the defaults.
type LimiterConfig struct {
	// Initial is the starting concurrency limit (default 16).
	Initial int
	// Min and Max clamp the limit (defaults 1 and 1024).
	Min, Max int
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Initial <= 0 {
		c.Initial = 16
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 1024
	}
	return c
}

const (
	// limiterTolerance is the acceptable latency multiple over the
	// no-load floor before the limit shrinks.
	limiterTolerance = 1.5
	limiterWindow    = 32 // latency samples per adjustment step
	// noloadWindows is how many adjustment windows the no-load latency
	// floor remembers; the floor is the minimum over them, so it can
	// recover upward when the service genuinely slows.
	noloadWindows = 10
)

// Limiter adaptively bounds a sidecar's inflight requests using a
// gradient/AIMD law on observed service latency:
//
//   - while the window's mean latency stays within limiterTolerance of
//     the no-load floor AND the limit was actually reached, grow the limit
//     additively (+1) — classic slow probing for headroom;
//   - when the mean exceeds the tolerance band, shrink the limit
//     multiplicatively, scaled by the overshoot gradient
//     (tolerance*floor / mean, clamped to [0.5, 0.98]) — the further
//     past the knee, the harder the backoff.
//
// The no-load floor is the minimum per-window latency over the last
// noloadWindows windows. EstimatedCapacity derives a requests/second
// capacity from Little's law (limit / mean latency).
type Limiter struct {
	cfg      LimiterConfig
	limit    float64
	inflight int

	winCount  int
	winSum    time.Duration
	winMin    time.Duration
	saturated bool // limit was hit during the current window

	minima   [noloadWindows]time.Duration
	minIdx   int
	minCount int

	lastMean time.Duration
}

// NewLimiter returns a limiter at its initial limit.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.Initial)}
}

// Limit returns the current concurrency limit.
func (l *Limiter) Limit() int { return int(l.limit) }

// Inflight returns the currently admitted requests.
func (l *Limiter) Inflight() int { return l.inflight }

// Acquire takes an inflight slot if one is free.
func (l *Limiter) Acquire() bool {
	if l.inflight >= l.Limit() {
		l.saturated = true
		return false
	}
	l.inflight++
	return true
}

// Forget releases a slot acquired for a dispatch that never happened
// (e.g. the queue turned out to hold nothing servable). No latency
// sample is recorded.
func (l *Limiter) Forget() {
	if l.inflight > 0 {
		l.inflight--
	}
}

// Release returns a slot and records the request's observed service
// latency. Failed requests release their slot but contribute no
// sample — error fast-paths would otherwise drag the estimate down.
func (l *Limiter) Release(latency time.Duration, ok bool) {
	if l.inflight > 0 {
		l.inflight--
	}
	if !ok || latency <= 0 {
		return
	}
	l.winCount++
	l.winSum += latency
	if l.winMin == 0 || latency < l.winMin {
		l.winMin = latency
	}
	if l.winCount >= limiterWindow {
		l.adjust()
	}
}

// adjust applies one gradient/AIMD step from the completed window.
func (l *Limiter) adjust() {
	l.minima[l.minIdx] = l.winMin
	l.minIdx = (l.minIdx + 1) % noloadWindows
	if l.minCount < noloadWindows {
		l.minCount++
	}

	mean := l.winSum / time.Duration(l.winCount)
	l.lastMean = mean
	floor := l.NoLoad()

	band := time.Duration(limiterTolerance * float64(floor))
	if floor > 0 && mean > band {
		gradient := float64(band) / float64(mean)
		if gradient < 0.5 {
			gradient = 0.5
		}
		if gradient > 0.98 {
			gradient = 0.98
		}
		l.limit *= gradient
		if l.limit < float64(l.cfg.Min) {
			l.limit = float64(l.cfg.Min)
		}
	} else if l.saturated {
		l.limit++
		if l.limit > float64(l.cfg.Max) {
			l.limit = float64(l.cfg.Max)
		}
	}

	l.winCount, l.winSum, l.winMin, l.saturated = 0, 0, 0, false
}

// NoLoad returns the current no-load latency floor estimate (0 before
// the first full window).
func (l *Limiter) NoLoad() time.Duration {
	var floor time.Duration
	for i := 0; i < l.minCount; i++ {
		if m := l.minima[i]; m > 0 && (floor == 0 || m < floor) {
			floor = m
		}
	}
	return floor
}

// EstimatedCapacity returns the Little's-law capacity estimate in
// requests per second: limit / mean latency of the last window (0
// before the first full window).
func (l *Limiter) EstimatedCapacity() float64 {
	if l.lastMean <= 0 {
		return 0
	}
	return l.limit / l.lastMean.Seconds()
}
