package sim

// FIFO is the queue between two hops of a model: Push at the tail, Pop at
// the head, over one slice and a head index. A drained queue rewinds onto
// the same array, and one that never drains slides its live tail down once
// the dead prefix is half a full array, so steady traffic allocates
// nothing. Pop and Reset zero what they vacate, so a drained queue keeps
// no frame reachable. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Peek returns the i-th item from the head (0 is the oldest). The pointer
// is valid until the next Push, Pop or Reset.
func (q *FIFO[T]) Peek(i int) *T { return &q.items[q.head+i] }

// Pop removes and returns the oldest item; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Reset empties the queue, keeping its backing array.
func (q *FIFO[T]) Reset() {
	clear(q.items[q.head:])
	q.items, q.head = q.items[:0], 0
}
