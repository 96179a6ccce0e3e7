package simnet

import (
	"math/rand"
	"slices"
	"testing"
)

// TestQueueMatchesSlice drives a Queue with random pushes, pops,
// mid-queue removals and clears against a plain reference slice, then
// checks what the head index is for: a queue that keeps draining
// allocates nothing, and one that never drains does not grow without
// bound.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q Queue[int]
	var ref []int
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(100); {
		case r < 52:
			q.Push(i)
			ref = append(ref, i)
		case r < 90 && len(ref) > 0:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		case r < 99 && len(ref) > 0:
			j := rng.Intn(len(ref))
			if got := q.Remove(j); got != ref[j] {
				t.Fatalf("step %d: removed %d at %d, want %d", i, got, j, ref[j])
			}
			ref = slices.Delete(ref, j, j+1)
		case r == 99:
			q.Clear()
			ref = ref[:0]
		}
		if q.Len() != len(ref) || !slices.Equal(q.Waiting(), ref) {
			t.Fatalf("step %d: queue %v, want %v", i, q.Waiting(), ref)
		}
		for _, v := range q.items[:q.head] {
			if v != 0 {
				t.Fatalf("step %d: spent slot still holds %d", i, v)
			}
		}
	}

	var d Queue[*int]
	v := new(int)
	d.Push(v)
	d.Pop()
	if n := testing.AllocsPerRun(100, func() { d.Push(v); d.Push(v); d.Pop(); d.Pop() }); n != 0 {
		t.Fatalf("draining queue allocates %v per round, want 0", n)
	}

	var h Queue[int]
	for i := 0; i < 100; i++ {
		h.Push(i)
	}
	for i := 0; i < 100000; i++ { // a standing backlog of 100 that never drains
		h.Push(i)
		h.Pop()
	}
	if c := cap(h.items); c > 1024 {
		t.Fatalf("standing backlog of 100 grew the array to %d slots", c)
	}
	if n := testing.AllocsPerRun(100, func() { h.Push(1); h.Pop() }); n != 0 {
		t.Fatalf("standing queue allocates %v per round, want 0", n)
	}
}
