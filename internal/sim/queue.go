package sim

import "math/bits"

// The near tier: wheelSlots buckets of 2^bucketShift ps, a horizon of
// 512 × 2 048 ps ≈ 1.05 µs from the clock's bucket. It is built, with room
// for slabFirst nodes, when a push finds wheelFrom events in the far tier.
const (
	bucketShift = 11
	wheelSlots  = 512
	wheelFrom   = 4
	slabFirst   = 16
)

// queue holds an engine's pending events in two tiers and pops them in
// exact (At, Seq) order. An event due within wheelSlots buckets of the
// clock's joins the near tier: a wheel of unsorted buckets whose nodes
// live in one slab, linked by index (0 ends a list; slab[0] is no node),
// found through an occupancy bit per bucket and a summary bit per word.
// A later one joins the far tier, a Heap, and stays there. No pending
// event is ever behind the clock (Engine.advanceTo), so near events lie in
// the clock's bucket and the wheelSlots-1 after it, one slot each, and the
// first occupied slot in circular order from the clock's holds the
// earliest. A pop takes that bucket's exact minimum or the far tier's Min,
// whichever is earlier. Until the wheel is built every event joins the far
// tier, so a shallow queue (a set-up, a small test) pays nothing for it.
type queue struct {
	heads *[wheelSlots]int32 // nil until the wheel is built
	occ   [wheelSlots / 64]uint64
	sum   uint64 // bit w: occ[w] != 0
	slab  []qnode
	free  int32 // the slab's free list
	near  int   // events in the near tier
	far   Heap[call]
}

// qnode is a near-tier event and the next node in its bucket or free list.
type qnode struct {
	Entry[call]
	next int32
}

// Len counts the events of both tiers.
func (q *queue) Len() int { return q.near + q.far.Len() }

// push adds v, due at at (not before now), with tie-breaker seq.
func (q *queue) push(now, at Time, seq uint64, v call) {
	if at>>bucketShift-now>>bucketShift >= wheelSlots || q.heads == nil && q.far.Len() < wheelFrom {
		q.far.Push(at, seq, v)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		if q.heads == nil {
			q.heads, q.slab = new([wheelSlots]int32), make([]qnode, 1, slabFirst)
		}
		i = int32(len(q.slab))
		q.slab = append(q.slab, qnode{})
	}
	s := uint(at>>bucketShift) % wheelSlots
	q.slab[i] = qnode{Entry[call]{v, at, seq}, q.heads[s]}
	q.heads[s] = i
	q.occ[s/64] |= 1 << (s % 64)
	q.sum |= 1 << (s / 64)
	q.near++
}

// first returns the first occupied slot at or after the clock's, in
// circular order. The near tier must not be empty.
func (q *queue) first(now Time) uint {
	s := uint(now>>bucketShift) % wheelSlots
	w := s / 64
	if m := q.occ[w] >> (s % 64); m != 0 {
		return s + uint(bits.TrailingZeros64(m))
	}
	ws := q.sum &^ (2<<w - 1) // the words after w
	if ws == 0 {
		ws = q.sum // wrap: the words from 0, w's bits below s among them
	}
	w = uint(bits.TrailingZeros64(ws))
	return w*64 + uint(bits.TrailingZeros64(q.occ[w]))
}

// earliest returns slot s's exact (At, Seq) minimum and its predecessor in
// the bucket (0 for the head).
func (q *queue) earliest(s uint) (m, pm int32) {
	m = q.heads[s]
	b := &q.slab[m]
	for p, i := m, b.next; i != 0; p, i = i, q.slab[i].next {
		if n := &q.slab[i]; n.At < b.At || n.At == b.At && n.Seq < b.Seq {
			m, pm, b = i, p, n
		}
	}
	return m, pm
}

// popThrough removes and returns the earliest event if it is due by last.
// The near tier must not be empty.
func (q *queue) popThrough(now, last Time) (Entry[call], bool) {
	s := q.first(now)
	m, pm := q.earliest(s)
	n := &q.slab[m]
	if f := q.far.h; len(f) > 0 && (f[0].At < n.At || f[0].At == n.At && f[0].Seq < n.Seq) {
		if f[0].At > last {
			return Entry[call]{}, false
		}
		return q.far.Pop(), true
	}
	if n.At > last {
		return Entry[call]{}, false
	}
	ev := n.Entry
	if pm == 0 {
		q.heads[s] = n.next
	} else {
		q.slab[pm].next = n.next
	}
	if q.heads[s] == 0 {
		if q.occ[s/64] &^= 1 << (s % 64); q.occ[s/64] == 0 {
			q.sum &^= 1 << (s / 64)
		}
	}
	*n = qnode{next: q.free} // drop the callback's references
	q.free = m
	q.near--
	return ev, true
}
