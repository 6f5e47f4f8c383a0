package sim

// Entry is one element of a Heap: V, due at At, with Seq breaking ties
// among entries due at the same instant. V comes first: a zero-size last
// field is padded, and would make an Entry[struct{}] 24 bytes, not 16.
type Entry[V any] struct {
	V   V
	At  Time
	Seq uint64
}

// Heap is the module's one heap: a 4-ary min-heap of entries ordered by
// (At, Seq). It holds the far tier of an engine's events, a group's
// controls and AggregatedClients' next arrivals. Both sifts move a hole
// instead of swapping (one store per level). The zero value is empty.
type Heap[V any] struct{ h []Entry[V] }

// NewHeap returns an empty heap with room for n entries.
func NewHeap[V any](n int) Heap[V] { return Heap[V]{h: make([]Entry[V], 0, n)} }

// Len returns the number of entries.
func (q *Heap[V]) Len() int { return len(q.h) }

// Min returns the earliest entry; the heap must not be empty. A caller
// that moves its At later must call FixMin before anything else.
func (q *Heap[V]) Min() *Entry[V] { return &q.h[0] }

// FixMin restores the order after the caller moved Min's At later.
func (q *Heap[V]) FixMin() { siftDown(q.h, q.h[0]) }

// Push adds v, due at at with tie-breaker seq.
func (q *Heap[V]) Push(at Time, seq uint64, v V) {
	h := append(q.h, Entry[V]{At: at, Seq: seq, V: v})
	// Sift up past every later parent ((i-1)/4) in full (At, Seq) order.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].At < at || (h[p].At == at && h[p].Seq < seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	if i < len(h)-1 {
		h[i] = Entry[V]{At: at, Seq: seq, V: v}
	}
	q.h = h
}

// shrinkCapMin is the least backing-array capacity Pop shrinks.
const shrinkCapMin = 64

// Pop removes and returns the earliest entry; the heap must not be empty.
// It clears the vacated tail slot, so the array retains nothing V
// references, and halves the array once the heap drains to a quarter of
// it, so a burst does not pin its high-water footprint for a long run.
func (q *Heap[V]) Pop() Entry[V] {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = Entry[V]{}
	h = h[:n]
	if n > 0 {
		siftDown(h, last)
	}
	if c := cap(h); c >= shrinkCapMin && n <= c/4 {
		s := make([]Entry[V], n, c/2)
		copy(s, h)
		h = s
	}
	q.h = h
	return top
}

// siftDown places x, which replaces the root, by moving a hole down from
// the root past every earlier child.
func siftDown[V any](h []Entry[V], x Entry[V]) {
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].At < h[m].At || (h[j].At == h[m].At && h[j].Seq < h[m].Seq) {
				m = j
			}
		}
		if x.At < h[m].At || (x.At == h[m].At && x.Seq < h[m].Seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
