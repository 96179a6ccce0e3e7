package transport

import (
	"math"
	"testing"
	"time"
)

// TestLEDBATLossAndTimeout: a loss halves LEDBAT's window, never below
// minWindow, and a retransmission timeout sets it to minWindow (RFC
// 6817 §2.4.2: on loss LEDBAT reacts as TCP does).
func TestLEDBATLossAndTimeout(t *testing.T) {
	l := NewLEDBAT()
	for i := 0; i < 200; i++ {
		l.OnAck(MSS, 10*time.Millisecond) // at the base RTT: no queueing, the window grows
	}
	if l.cwnd <= initialWindow {
		t.Fatalf("window %v did not grow past the initial %d", l.cwnd, initialWindow)
	}
	for l.cwnd > minWindow {
		before := l.cwnd
		l.OnLoss()
		if want := math.Max(before/2, minWindow); l.cwnd != want {
			t.Fatalf("a loss at window %v left %v, want %v", before, l.cwnd, want)
		}
	}
	l.OnLoss()
	if l.cwnd != minWindow {
		t.Fatalf("a loss at the floor left %v, want minWindow %d", l.cwnd, minWindow)
	}
	l.OnAck(100*MSS, 10*time.Millisecond)
	if l.cwnd <= minWindow {
		t.Fatalf("window %v did not grow after the losses", l.cwnd)
	}
	l.OnTimeout()
	if l.cwnd != minWindow {
		t.Fatalf("a timeout left %v, want minWindow %d", l.cwnd, minWindow)
	}
}

// TestLPLossPinsWindow: a loss halves LP's window, never below
// minWindow, and pins it for an inference phase of three times the
// last RTT: ACKs inside the phase leave the window where the loss put
// it, and the first ACK past it grows it again. A timeout sets the
// window to minWindow.
func TestLPLossPinsWindow(t *testing.T) {
	const rtt = 10 * time.Millisecond
	l := NewLP()
	for i := 0; i < 50; i++ {
		l.OnAck(MSS, rtt) // a constant RTT: no delay signal, the window grows
	}
	before := l.cwnd
	if before <= initialWindow {
		t.Fatalf("window %v did not grow past the initial %d", before, initialWindow)
	}
	l.OnLoss()
	pinned := l.cwnd
	if pinned != before/2 {
		t.Fatalf("a loss at window %v left %v, want half", before, pinned)
	}
	for i := 1; i <= 3; i++ { // the clock reaches the phase's end and stays pinned
		l.OnAck(MSS, rtt)
		if l.cwnd != pinned {
			t.Fatalf("ACK %d, %v into the inference phase, moved the window %v → %v", i, time.Duration(i)*rtt, pinned, l.cwnd)
		}
	}
	l.OnAck(MSS, rtt)
	if l.cwnd <= pinned {
		t.Fatalf("the first ACK past the inference phase left the window at %v", l.cwnd)
	}
	for l.cwnd > minWindow {
		w := l.cwnd
		l.OnLoss()
		if want := math.Max(w/2, minWindow); l.cwnd != want {
			t.Fatalf("a loss at window %v left %v, want %v", w, l.cwnd, want)
		}
	}
	for i := 0; i < 10; i++ {
		l.OnAck(MSS, rtt)
	}
	if l.cwnd <= minWindow {
		t.Fatalf("window %v did not grow after the losses", l.cwnd)
	}
	l.OnTimeout()
	if l.cwnd != minWindow {
		t.Fatalf("a timeout left %v, want minWindow %d", l.cwnd, minWindow)
	}
}
