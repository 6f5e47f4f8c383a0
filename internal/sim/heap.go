package sim

// Entry is one element of a Heap: V, due at At, with Seq breaking ties
// among entries due at the same instant. V comes first: a zero-size last
// field is padded, and would make an Entry[struct{}] 24 bytes, not 16.
type Entry[V any] struct {
	V   V
	At  Time
	Seq uint64
}

// Heap is the module's one priority queue: a 4-ary min-heap of entries
// ordered by (At, Seq). The engine keeps its pending events in one, and
// AggregatedClients its clients' next arrivals. The zero value is empty.
//
// The 4-ary layout halves a binary heap's depth, and both sifts move a
// hole instead of swapping (one store per level). What dominates a pop is
// not depth but branch prediction: a heap of pending events holds 64–127
// entries (four or five levels), and each level's pick of the earliest
// child is an unpredictable compare. So a full group of four children is searched by a branch-free
// tournament on At, and only when two or more children are due at the
// winning time does the search fall back to the exact (At, Seq) scan.
type Heap[V any] struct{ h []Entry[V] }

// NewHeap returns an empty heap with room for n entries, for a user whose
// size is known up front.
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
	// Sift up: the parent of i is (i-1)/4. The comparison is the full
	// (At, Seq) order, so an entry climbs past equal-time parents with a
	// larger Seq and stays below those with a smaller one.
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

// shrinkCapMin is the smallest backing-array capacity the shrink policy
// considers; below it the memory at stake is noise.
const shrinkCapMin = 64

// Pop removes and returns the earliest entry; the heap must not be empty.
// The vacated tail slot is cleared so the backing array does not retain
// what V references, and the array is reallocated at half capacity once
// the heap drains to a quarter of it, so a burst does not pin its
// high-water footprint for the rest of a long run.
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
		if c+4 <= n {
			a0, a1, a2, a3 := h[c].At, h[c+1].At, h[c+2].At, h[c+3].At
			i01, t01 := earlier(c, a0, c+1, a1)
			i23, t23 := earlier(c+2, a2, c+3, a3)
			var tm Time
			m, tm = earlier(i01, t01, i23, t23)
			// a - tm - 1 is negative exactly for the children due at the
			// winning time tm, their minimum.
			ties := -((a0-tm-1)>>63 + (a1-tm-1)>>63 + (a2-tm-1)>>63 + (a3-tm-1)>>63)
			if ties > 1 {
				for j := c; j < c+4; j++ {
					if h[j].At == tm && h[j].Seq < h[m].Seq {
						m = j
					}
				}
			}
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].At < h[m].At || (h[j].At == h[m].At && h[j].Seq < h[m].Seq) {
					m = j
				}
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

// earlier returns whichever of (i, a) and (j, b) is due first, i on equal
// times, without a branch: mask is all ones exactly when b < a. Times are
// never negative, so b-a cannot overflow.
func earlier(i int, a Time, j int, b Time) (int, Time) {
	mask := int64(b-a) >> 63
	return i ^ (i^j)&int(mask), a ^ (a^b)&Time(mask)
}
