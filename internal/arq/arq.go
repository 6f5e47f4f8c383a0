// Package arq is the one reliable-delivery sender both transports run on:
// go-back-N over a 32-bit sequence space, cumulative acks, one
// retransmission timer and a bounded no-progress retry budget. The RoCE
// RC QP queues one unit per PSN, the TCP engine one per segment (a FIN
// counts as one). Each owner keeps its window predicate, receiver and ack
// policy, and what an exhausted budget means. Callbacks get a pointer
// into the queue slot, valid until the sender's next Push, Ack or Flush.
package arq

import "flexdriver/internal/sim"

// unit is n sequence numbers from seq.
type unit[T any] struct {
	seq, n uint32
	v      T
}

// Sender is a go-back-N sender: its queue holds the units in [Una, Nxt).
type Sender[T any] struct {
	Una, Nxt uint32

	q        sim.FIFO[unit[T]]
	sent     int // sent units are a queue prefix: its length
	rto      *sim.Timer
	d        sim.Duration
	armedUna uint32 // Una when the timer was armed
	retries  int    // consecutive no-progress retries
}

// Init binds the timer, whose callback calls Timeout, and its duration.
func (s *Sender[T]) Init(rto *sim.Timer, d sim.Duration) { s.rto, s.d = rto, d }

// Push queues v as the next n sequence numbers.
func (s *Sender[T]) Push(n uint32, v T) {
	s.q.Push(unit[T]{seq: s.Nxt, n: n, v: v})
	s.Nxt += n
}

// Unsent returns the oldest unit not yet transmitted; v is nil when every
// queued unit was sent.
func (s *Sender[T]) Unsent() (seq uint32, v *T) {
	if s.sent == s.q.Len() {
		return 0, nil
	}
	u := s.q.Peek(s.sent)
	return u.seq, &u.v
}

// Pump transmits unsent units in order while fits admits them and
// returns the first one it refused (v nil if none). It does not arm the
// timer: the owner may have more to do at this instant first.
func (s *Sender[T]) Pump(fits func(seq uint32, v *T) bool, emit func(seq uint32, v *T)) (seq uint32, v *T) {
	for s.sent < s.q.Len() {
		u := s.q.Peek(s.sent)
		if !fits(u.seq, &u.v) {
			return u.seq, &u.v
		}
		s.sent++
		emit(u.seq, &u.v)
	}
	return 0, nil
}

// Resend goes back N over the sent prefix, in order, while fits admits,
// and returns how many units it resent. Resend then Pump under one
// predicate resends all the window holds.
func (s *Sender[T]) Resend(fits func(seq uint32, v *T) bool, emit func(seq uint32, v *T)) (n int) {
	for ; n < s.sent; n++ {
		u := s.q.Peek(n)
		if !fits(u.seq, &u.v) {
			break
		}
		emit(u.seq, &u.v)
	}
	return n
}

// Ack takes a cumulative ack of everything before to, unless it fails to
// move Una or passes Nxt (acks nothing sent), and reports which. Progress
// refills the retry budget; each unit wholly acked goes to done (nil-able)
// and off the queue, oldest first.
func (s *Sender[T]) Ack(to uint32, done func(v *T)) bool {
	if int32(to-s.Una) <= 0 || int32(to-s.Nxt) > 0 {
		return false
	}
	s.Una = to
	s.retries = 0
	for s.q.Len() > 0 && int32(s.q.Peek(0).seq+s.q.Peek(0).n-to) <= 0 {
		if done != nil {
			done(&s.q.Peek(0).v)
		}
		s.q.Pop()
		s.sent = max(s.sent-1, 0)
	}
	return true
}

// Arm guards the oldest unacked unit with the timer. It never pushes out
// a running deadline (a busy sender cannot out-wait a silent peer).
func (s *Sender[T]) Arm() {
	if s.rto.Armed() || s.q.Len() == 0 {
		return
	}
	s.armedUna = s.Una
	s.rto.Reset(s.d)
}

// Verdict is what a retransmission timeout calls for: Rearm after
// progress or with the head unsent (a window stall the owner handles),
// Resend (go back N, then Arm) or Exhausted (the budget is spent).
type Verdict uint8

const (
	Rearm Verdict = iota
	Resend
	Exhausted
)

// Timeout judges an expiry: it spends a retry only if Una has not moved
// since Arm and the head was sent.
func (s *Sender[T]) Timeout(budget int) Verdict {
	if s.sent == 0 || s.Una != s.armedUna {
		return Rearm
	}
	if s.Retry(budget) {
		return Exhausted
	}
	return Resend
}

// Retry spends one no-progress retry and reports whether that exceeded
// budget; TCP's persist probes spend them too.
func (s *Sender[T]) Retry(budget int) (exhausted bool) {
	s.retries++
	return s.retries > budget
}

// Flush hands every unit to done (nil-able), oldest first, empties the
// queue, zeroes both sequence numbers and the retries, and stops the timer.
func (s *Sender[T]) Flush(done func(v *T)) {
	if done != nil {
		for i := 0; i < s.q.Len(); i++ {
			done(&s.q.Peek(i).v)
		}
	}
	s.q.Reset()
	s.Una, s.Nxt, s.sent, s.retries = 0, 0, 0, 0
	s.rto.Stop()
}
