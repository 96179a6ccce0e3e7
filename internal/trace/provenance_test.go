package trace

import (
	"fmt"
	"testing"
	"time"
)

// TestProvenance drives one table through Put, Get and Take and
// through two sweeps: a record is read back until Take deletes it, a
// Put replaces the record, and every provSweepEvery-th Put — only
// that one — deletes the records whose until has passed, keeping those
// still live, including one whose until is the sweep's now.
func TestProvenance(t *testing.T) {
	var p Provenance[string]
	if _, ok := p.Get("a"); ok || p.Len() != 0 {
		t.Fatal("zero table holds a record")
	}
	if _, ok := p.Take("a"); ok {
		t.Fatal("zero table gave a record")
	}

	steps := []struct {
		name string
		do   func()
		id   string
		want string // "" = no record
	}{
		{"put", func() { p.Put("a", "x", 10, 0) }, "a", "x"},
		{"put replaces", func() { p.Put("a", "y", 20, 0) }, "a", "y"},
		{"empty id not recorded", func() { p.Put("", "z", 20, 0) }, "", ""},
		{"get keeps", func() { p.Get("a") }, "a", "y"},
		{"take deletes", func() {
			if v, ok := p.Take("a"); !ok || v != "y" {
				t.Fatalf("Take(a) = %q %v, want y", v, ok)
			}
		}, "a", ""},
		{"take of a missing id", func() {
			if _, ok := p.Take("a"); ok {
				t.Fatal("second Take found a record")
			}
		}, "a", ""},
	}
	for _, s := range steps {
		s.do()
		v, ok := p.Get(s.id)
		if ok != (s.want != "") || v != s.want {
			t.Fatalf("%s: Get(%q) = %q %v, want %q", s.name, s.id, v, ok, s.want)
		}
	}

	// A fresh table: records with until 100 (past at now 200), 200 (the
	// sweep's now: not past) and 300 (live) are Puts 1..3.
	p = Provenance[string]{}
	p.Put("past", "1", 100, 0)
	p.Put("edge", "2", 200, 0)
	p.Put("live", "3", 300, 0)
	fills := 0
	filler := func(n int, now time.Duration) {
		for ; n > 0; n-- {
			p.Put(fmt.Sprintf("f%d", fills), "f", now+time.Hour, now)
			fills++
		}
	}
	filler(provSweepEvery-4, 200) // Puts 4..255: no sweep yet
	if _, ok := p.Get("past"); !ok {
		t.Fatalf("a sweep ran before Put %d", provSweepEvery)
	}
	filler(1, 200) // Put 256 sweeps
	for id, want := range map[string]bool{"past": false, "edge": true, "live": true} {
		if _, ok := p.Get(id); ok != want {
			t.Fatalf("after the first sweep: record %q present = %v, want %v", id, ok, want)
		}
	}
	if got, want := p.Len(), provSweepEvery-1; got != want {
		t.Fatalf("after the first sweep: %d records, want %d", got, want)
	}

	// The count restarts: the next sweep is Put 512, at now 400, and
	// takes "edge" and "live" but not the fillers.
	filler(provSweepEvery-1, 400)
	if _, ok := p.Get("edge"); !ok {
		t.Fatal("a sweep ran before the second cadence")
	}
	filler(1, 400)
	for id, want := range map[string]bool{"edge": false, "live": false, "f0": true} {
		if _, ok := p.Get(id); ok != want {
			t.Fatalf("after the second sweep: record %q present = %v, want %v", id, ok, want)
		}
	}
}
