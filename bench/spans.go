package main

import (
	"encoding/json"
	"os"
	"time"
)

// hostNow is the benchmark's one wall-clock read. Host time never
// reaches the simulation: it brackets calls into it.
func hostNow() time.Time {
	return time.Now() //meshvet:allow walltime host-side benchmark timing around calls into the simulator, never feeds sim state
}

// span is one host-timed call into a layer, recorded from outside the
// program around the call. Start and End are nanoseconds since the
// recorder was made; Parent is the index of the enclosing span or -1;
// Run numbers the rep (or 0 for the ladder).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// spanLog keeps spans in memory; they are written out only when the
// run ends, so recording costs two clock reads and an append.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
}

func newSpanLog() *spanLog { return &spanLog{t0: hostNow()} }

// begin opens a span under the innermost open one.
func (l *spanLog) begin(name string, run int) {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: int64(hostNow().Sub(l.t0)), Parent: parent, Run: run})
}

// end closes the innermost open span and returns its duration.
func (l *spanLog) end() time.Duration {
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[i].End = int64(hostNow().Sub(l.t0))
	return time.Duration(l.spans[i].End - l.spans[i].Start)
}

// time runs fn inside a span.
func (l *spanLog) time(name string, run int, fn func()) time.Duration {
	l.begin(name, run)
	fn()
	return l.end()
}

// writeTo writes the spans as JSON lines.
func (l *spanLog) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
