package nic

import "flexdriver/internal/sim"

// Enhanced Transmission Selection (ETS): weighted arbitration among send
// queues sharing the egress port. The paper's §5.5 names NIC
// prioritization (e.g. ETS) as one reason transmit queues progress at
// different rates — which is exactly why FLD exposes per-queue credits to
// the accelerator instead of a single shared count.
//
// The scheduler is deficit-round-robin: each active queue accumulates
// quantum x weight bytes of credit per round and transmits frames while
// its deficit covers them. It is work-conserving: a queue alone on the
// port gets full line rate regardless of weight.

type etsFrame struct {
	frame   []byte
	flowTag uint32
	vport   *VPort
	onSent  func()
}

type etsQueue struct {
	weight  int
	deficit int
	fifo    sim.FIFO[etsFrame]
	inRound bool // membership in the scheduler's round-robin order
}

type etsScheduler struct {
	n       *NIC
	queues  map[uint32]*etsQueue
	order   sim.FIFO[uint32] // round-robin order of active arbitration keys
	quantum int
	busy    bool
}

func newETSScheduler(n *NIC) *etsScheduler {
	return &etsScheduler{n: n, queues: make(map[uint32]*etsQueue), quantum: 1500}
}

// etsKey resolves an SQ's arbitration account and weight. A queue with
// its own Weight arbitrates individually under its SQ ID. A weightless
// queue owned by a weighted VF joins the VF's shared account (vfETSKey):
// every queue of the function draws from ONE deficit, so a tenant's
// bandwidth share is set by its VF weight, not by how many queues it
// opens.
func (sq *SQ) etsKey() (key uint32, weight int, arbitrated bool) {
	if sq.Weight > 0 {
		return sq.ID, sq.Weight, true
	}
	if sq.vf != nil && sq.vf.weight > 0 {
		return vfETSKey(sq.vf.ID), sq.vf.weight, true
	}
	return 0, 0, false
}

// dispatch enqueues one frame from the given SQ and starts the pump.
func (s *etsScheduler) dispatch(sq *SQ, frame []byte, flowTag uint32, onSent func()) {
	key, w, _ := sq.etsKey()
	q := s.queues[key]
	if q == nil {
		w = max(w, 1)
		q = &etsQueue{weight: w}
		s.queues[key] = q
	}
	if !q.inRound {
		q.inRound = true
		s.order.Push(key)
	}
	q.fifo.Push(etsFrame{frame: frame, flowTag: flowTag, vport: sq.VPort, onSent: onSent})
	if !s.busy {
		s.pump()
	}
}

// setWeight re-slices an existing arbitration account live (VF requota).
// Accounts not yet created pick up the new weight on their first
// dispatch; frames already queued keep their accumulated deficit.
func (s *etsScheduler) setWeight(key uint32, w int) {
	if q := s.queues[key]; q != nil {
		w = max(w, 1)
		q.weight = w
	}
}

// pump grants the next frame by deficit round robin and recurses when its
// transmission completes.
func (s *etsScheduler) pump() {
	if s.order.Len() == 0 {
		s.busy = false
		return
	}
	s.busy = true
	for {
		id := *s.order.Peek(0)
		q := s.queues[id]
		if q.fifo.Len() == 0 {
			// Idle queues leave the round and forfeit their deficit
			// (DRR's work-conserving rule).
			q.deficit = 0
			q.inRound = false
			s.order.Pop()
			if s.order.Len() == 0 {
				s.busy = false
				return
			}
			continue
		}
		if q.deficit < len(q.fifo.Peek(0).frame) {
			q.deficit += s.quantum * q.weight
			// Move to the back of the round.
			s.order.Push(s.order.Pop())
			continue
		}
		head := q.fifo.Pop()
		q.deficit -= len(head.frame)
		s.n.egress(head.vport, head.frame, head.flowTag, func() {
			if head.onSent != nil {
				head.onSent()
			}
			s.pump()
		})
		return
	}
}
