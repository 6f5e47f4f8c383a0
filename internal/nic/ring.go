package nic

import "flexdriver/internal/sim"

// SendRing is a driver's side of a send queue, shared by the host driver
// and the FLD (DESIGN "One send ring, one receive ring"). PI is the index
// the next descriptor takes; the posted entries, what the owner releases
// when one retires, wait in ring order behind it.
type SendRing[T any] struct {
	Size, PI uint32
	posted   sim.FIFO[T]
}

// CI is the index of the oldest posted entry, or PI when none is.
func (r *SendRing[T]) CI() uint32 { return r.PI - uint32(r.posted.Len()) }

// Len is how many entries are posted; Space is how many more fit.
func (r *SendRing[T]) Len() int   { return r.posted.Len() }
func (r *SendRing[T]) Space() int { return int(r.Size) - r.posted.Len() }

// Post records v at index PI and advances PI.
func (r *SendRing[T]) Post(v T) {
	r.posted.Push(v)
	r.PI++
}

// Complete reports how many entries a completion at idx (16-bit ring
// arithmetic) retires, for the caller to Pop: every posted entry up to
// and including idx, since a signalled CQE covers its unsignalled
// predecessors. A CQE for an index that is not posted is stale and
// retires none. It holds for queues that complete in ring order.
func (r *SendRing[T]) Complete(idx uint16) int {
	if n := int(idx-uint16(r.CI())) + 1; n <= r.posted.Len() {
		return n
	}
	return 0
}

// Pop retires the oldest posted entry; the ring must not be empty.
func (r *SendRing[T]) Pop() T { return r.posted.Pop() }

// Flush discards every posted entry and returns how many there were.
func (r *SendRing[T]) Flush() int {
	n := r.posted.Len()
	r.posted.Reset()
	return n
}

// RecvRing is a driver's side of a receive queue whose Size descriptors
// stay in place: advancing PI reposts a buffer. On a multi-packet queue
// the buffer being filled is done once its Strides strides are consumed
// or the NIC moves on to another.
type RecvRing struct {
	Size, Strides int
	PI            uint32
	cur           int32 // 1 + ring index of the buffer being filled; 0: none
	used          int   // strides consumed in it
}

// Fill accounts a completion that consumed strides strides of buffer buf
// and returns how many buffers it reposted (0, 1 or 2) and the first of
// them; a second is buf. The owner rings one doorbell per repost, the
// first at PI-1 when there are two.
func (r *RecvRing) Fill(buf int32, strides int) (n int, first int32) {
	first = buf
	if left := r.cur - 1; r.cur != buf+1 && r.Abandon() {
		n, first = 1, left // the NIC left the previous buffer's remaining strides
	}
	r.cur, r.used = buf+1, r.used+strides
	if r.used >= r.Strides {
		r.Abandon()
		n++
	}
	r.PI += uint32(n)
	return n, first
}

// Abandon stops tracking the buffer being filled, without reposting it,
// and reports whether there was one.
func (r *RecvRing) Abandon() bool {
	was := r.cur != 0
	r.cur, r.used = 0, 0
	return was
}

// TopUp reposts every buffer the NIC no longer holds; posted is how many
// it does (RQ.Posted).
func (r *RecvRing) TopUp(posted int) { r.PI += uint32(max(r.Size-posted, 0)) }
