package nic

// CQE error syndromes, mirroring the syndrome field real adapters place
// in error completions. Per-WQE syndromes (SynBadWQE, SynGather,
// SynRetryExceeded, SynInjected) consume their slot: the consumer may
// release resources up to and including CQE.Index. SynQueueErr is
// queue-fatal: nothing was completed, the queue is in the Error state,
// and the driver must reset it (SQ.ResetTo, RQ.Reset) before any
// further work executes; CQE.Index is meaningless for it.
const (
	SynBadWQE        = 1 // descriptor failed to parse or had an invalid opcode
	SynGather        = 2 // payload gather DMA failed (error completion)
	SynQueueErr      = 3 // queue-fatal: WQE fetch failed, queue now in Error
	SynRetryExceeded = 4 // RDMA retransmit retry budget exhausted, QP in Error
	SynInjected      = 5 // fault plane rewrote a success CQE into an error
)

// QueueState is the operational state of an SQ, RQ or QP.
type QueueState uint8

const (
	// QueueReady processes work normally.
	QueueReady QueueState = iota
	// QueueError stops all processing until a driver-initiated reset;
	// real adapters require a modify-queue RST->RDY transition.
	QueueError
)

func (s QueueState) String() string {
	if s == QueueError {
		return "error"
	}
	return "ready"
}

// FaultHooks lets a fault-injection plane perturb the NIC's internal
// machinery. Every hook is optional (nil means "never").
type FaultHooks struct {
	// DropDoorbell reports whether to lose a 4-byte doorbell write.
	// Doorbell loss self-heals: doorbells carry the absolute producer
	// index, so the next doorbell supersedes the lost one.
	DropDoorbell func(n *NIC) bool
	// FailWQEFetch reports whether an SQ descriptor fetch should fail,
	// driving the queue into the Error state (SynQueueErr).
	FailWQEFetch func(sq *SQ) bool
	// CQEError reports whether to rewrite the next successful CQE on
	// the queue into an error completion with SynInjected.
	CQEError func(cq *CQ) bool
}

// SetFaults installs (or, with nil, removes) fault-injection hooks.
func (n *NIC) SetFaults(h *FaultHooks) { n.flt = h }

// --- SQ error state ------------------------------------------------------

// State reports the send queue's operational state.
func (sq *SQ) State() QueueState { return sq.state }

// enterError transitions the SQ to the Error state: processing stops,
// in-flight work is invalidated (epoch bump) and a queue-fatal error
// CQE (SynQueueErr semantics: nothing released) notifies the consumer.
func (sq *SQ) enterError(syndrome uint8) {
	if sq.state == QueueError {
		return
	}
	sq.state = QueueError
	sq.epoch++
	sq.n.Stats.QueueErrors++
	if sq.CQ != nil {
		sq.CQ.Push(CQE{Opcode: CQEError, Syndrome: syndrome, Last: true,
			Index: uint16(sq.ci), Queue: sq.ID})
	}
}

// ResetTo returns an Error-state SQ to Ready at an explicit ci/pi. The
// host driver flushes with ResetTo(pi, pi): every posted but incomplete
// descriptor is discarded, and the driver, which tracks its own in-flight
// work, reposts what it wants retried. FLD replays: the accelerator
// rewinds to the last completion it saw and the NIC re-fetches
// descriptors from the ring, which the FLD still serves from its
// descriptor pools.
// A reset is a no-op while the device is crashed: the modify-queue
// command cannot reach dead hardware, so the queue stays in Error and
// the driver's watchdog retries after the device restarts.
func (sq *SQ) ResetTo(ci, pi uint32) {
	if sq.n.downN > 0 {
		return
	}
	sq.epoch++
	sq.ci, sq.pi = ci, pi
	sq.inflight = 0
	clear(sq.mmio)
	sq.state = QueueReady
	sq.n.Stats.QueueRecoveries++
	sq.kick()
}

// --- RQ error state ------------------------------------------------------

// State reports the receive queue's operational state.
func (rq *RQ) State() QueueState { return rq.state }

// enterError transitions the RQ to the Error state: arriving packets are
// dropped and counted, in-flight descriptor fetches are invalidated, and
// a queue-fatal error CQE notifies the consumer.
func (rq *RQ) enterError(syndrome uint8) {
	if rq.state == QueueError {
		return
	}
	rq.state = QueueError
	rq.epoch++
	rq.n.Stats.QueueErrors++
	if rq.CQ != nil {
		rq.CQ.Push(CQE{Opcode: CQEError, Syndrome: syndrome, Last: true,
			Queue: rq.ID})
	}
}

// Reset returns an Error-state RQ to Ready. The descriptor prefetch
// pipeline rewinds to the consumer index and re-fetches from the ring —
// posted buffers between ci and pi are preserved, so no receive capacity
// is lost across the reset.
// Like SQ.ResetTo, a no-op while the device is crashed.
func (rq *RQ) Reset() {
	if rq.n.downN > 0 {
		return
	}
	rq.epoch++
	rq.fetchIdx = rq.ci
	rq.inflight = 0
	rq.fetchSeq, rq.drainSeq = 0, 0
	rq.fetched = nil
	rq.ready.Reset()
	for rq.backlog.Len() > 0 {
		rq.n.eng.Bufs().Put(rq.backlog.Pop().buf)
	}
	rq.haveCur = false
	rq.state = QueueReady
	rq.n.Stats.QueueRecoveries++
	rq.prefetch()
}
