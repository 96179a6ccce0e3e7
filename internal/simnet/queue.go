package simnet

// Queue is a first-in first-out queue that keeps its array (DESIGN.md
// "Queues that keep their arrays"): Pop advances a head index instead of
// reslicing with q = q[1:], which would hand the array away a slot at a
// time and make a queue that mostly holds one element allocate on every
// Push. FIFO keeps its packets in one and adds byte accounting. The zero
// value is an empty queue.
type Queue[T any] struct {
	items []T // items[head:] wait; the prefix is spent and zeroed
	head  int
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		// Full with at least half spent: slide the waiting elements down
		// rather than grow, so the array stays within a small multiple
		// of the longest queue and the copy stays amortised (a drained
		// queue slides nothing and starts over at slot 0).
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	return q.Remove(0)
}

// Remove removes and returns the i-th waiting element (0 is the head),
// keeping the others in order.
func (q *Queue[T]) Remove(i int) T {
	i += q.head
	v := q.items[i]
	var zero T
	if i == q.head {
		q.items[i] = zero
		q.head++
		return v
	}
	n := len(q.items) - 1
	copy(q.items[i:], q.items[i+1:])
	q.items[n] = zero
	q.items = q.items[:n]
	return v
}

// Waiting returns the queued elements, head first. The slice aliases the
// queue: it is valid until the next Push, Remove or Clear.
func (q *Queue[T]) Waiting() []T { return q.items[q.head:] }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Clear empties the queue, keeping its array.
func (q *Queue[T]) Clear() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}
