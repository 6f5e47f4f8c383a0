package nic

import (
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// Pooled steady-state records: each per-packet path of the NIC (WQE
// execution, transmit dispatch, CQE writes, receive placement) carries its
// state in one, recycled through a per-NIC sim.Pool and stepped by static
// trampolines or by a completion bound to the record once. A record whose
// completion never fires (a dropped PCIe write, a queue reset) is left to
// the garbage collector: correctness never depends on recycling.

// sqFetch carries one batched descriptor read from SQ.kick to its
// completion. done is bound to the record once, when the pool makes it
// (newSQFetch), so handing it to pcie.Port.Read costs no closure. A read's
// completion fires exactly once, and that is where the record is recycled.
type sqFetch struct {
	sim.Link[sqFetch]
	sq    *SQ
	ep    uint32
	first uint32
	count int
	done  func(pcie.Completion)
}

func newSQFetch() *sqFetch {
	x := &sqFetch{}
	x.done = func(c pcie.Completion) { sqFetchDone(x, c) }
	return x
}

// sqFetchDone is the descriptor read's completion: queue each fetched
// descriptor for its txEngine slot, unless the queue was reset while the
// fetch was in flight. The completion is borrowed, and a descriptor waits
// out its slot, so each is copied into its own record.
func sqFetchDone(x *sqFetch, c pcie.Completion) {
	sq, ep, first, count := x.sq, x.ep, x.first, x.count
	x.sq = nil
	sq.n.fetches.Put(x)
	if sq.epoch != ep {
		return
	}
	if !c.OK() {
		sq.enterError(SynQueueErr)
		return
	}
	for i := 0; i < count; i++ {
		e := sq.n.execs.Get()
		e.sq, e.ep = sq, ep
		e.idx = first + uint32(i)
		e.raw = e.desc[:copy(e.desc[:], c.Data[i*SendWQESize:(i+1)*SendWQESize])]
		sq.n.eng.AtArg(sq.n.txEngine.Acquire(sq.n.Prm.TxPerWQE), sqExecRun, e)
	}
}

// sqExec carries one descriptor through the txEngine service delay and,
// when its payload lives in memory, on through the gather read. raw is
// the descriptor, copied into desc from the fetch completion or the MMIO
// write; wqe is the parsed descriptor the gather completion dispatches.
// gathered is bound once, like sqFetch.done.
type sqExec struct {
	sim.Link[sqExec]
	sq       *SQ
	ep       uint32
	idx      uint32
	raw      []byte
	desc     [SendWQEMMIOSize]byte
	wqe      SendWQE
	gathered func(pcie.Completion)
}

func newSQExec() *sqExec {
	x := &sqExec{}
	x.gathered = func(c pcie.Completion) { sqExecGathered(x, c) }
	return x
}

func (n *NIC) putSQExec(x *sqExec) {
	x.sq, x.raw, x.wqe = nil, nil, SendWQE{}
	n.execs.Put(x)
}

// sqExecRun is the txEngine completion: run the descriptor unless the
// queue was reset while it waited. The record is recycled here, after
// execute (raw may live in it) — unless it went on to carry a gather.
func sqExecRun(a any) {
	x := a.(*sqExec)
	if sq := x.sq; sq.epoch != x.ep || !sq.execute(x) {
		sq.n.putSQExec(x)
	}
}

// sqExecGathered is the payload read's completion: the record has done its
// job either way, and the descriptor is dispatched unless the queue was
// reset while the gather was in flight.
func sqExecGathered(x *sqExec, c pcie.Completion) {
	sq, ep, idx, wqe := x.sq, x.ep, x.idx, x.wqe
	sq.n.putSQExec(x)
	if sq.epoch != ep {
		return
	}
	if !c.OK() {
		// Per-WQE gather failure: the slot is consumed with an error
		// completion; the queue itself stays Ready.
		sq.retire(ep, idx, CQE{Opcode: CQEError, Syndrome: SynGather, Index: uint16(idx), Queue: sq.ID}, true)
		return
	}
	sq.dispatch(ep, idx, wqe, c.Data)
}

// txSend carries a raw-Ethernet transmit from dispatch (optionally through
// a shaper delay) to the egress-complete retire. onSent is bound to the
// record once, by newTxSend, so re-arming it costs nothing; the eSwitch
// fires it exactly once on every terminal path, maybe after the frame's
// end, so the retire reads len.
type txSend struct {
	sim.Link[txSend]
	sq      *SQ
	ep      uint32
	idx     uint32
	frame   []byte
	len     int
	flowTag uint32
	signal  bool
	onSent  func()
}

func newTxSend() *txSend {
	x := &txSend{}
	x.onSent = func() { txSendSent(x) }
	return x
}

// txSendFire runs after any shaper delay: hand the frame to ETS or the
// egress pipeline.
func txSendFire(a any) {
	x := a.(*txSend)
	sq, frame := x.sq, x.frame
	x.frame = nil
	if _, _, arb := sq.etsKey(); arb {
		if sq.n.ets == nil {
			sq.n.ets = newETSScheduler(sq.n)
		}
		sq.n.ets.dispatch(sq, frame, x.flowTag, x.onSent)
		return
	}
	sq.n.egress(sq.VPort, frame, x.flowTag, x.onSent)
}

// txSendSent is the egress completion: retire the WQE.
func txSendSent(x *txSend) {
	sq, ep, idx, n, flowTag, signal := x.sq, x.ep, x.idx, x.len, x.flowTag, x.signal
	x.sq = nil
	sq.n.sends.Put(x)
	sq.retire(ep, idx, CQE{
		Opcode: CQESend, Index: uint16(idx), Queue: sq.ID,
		ByteCount: uint32(n), FlowTag: flowTag, Last: true,
	}, signal)
}

// cqWrite carries one completion through its DMA write; the CQE payload
// buffer itself comes from the engine's BufPool and is owned (and
// recycled) by the fabric. done is bound once, like sqFetch.done.
type cqWrite struct {
	sim.Link[cqWrite]
	cq   *CQ
	c    CQE
	done func()
}

func newCQWrite() *cqWrite {
	x := &cqWrite{}
	x.done = func() { cqPushDone(x) }
	return x
}

// cqPushDone fires when the CQE landed in the ring: notify the consumer.
func cqPushDone(x *cqWrite) {
	cq, c := x.cq, x.c
	x.cq = nil
	cq.n.cqws.Put(x)
	if cq.onCQE != nil {
		cq.onCQE(c)
	}
}

// rqFetch carries one batched receive-descriptor read from RQ.prefetch to
// its completion; done is bound once, like sqFetch.done.
type rqFetch struct {
	sim.Link[rqFetch]
	rq   *RQ
	ep   uint32
	seq  uint64
	n    int
	done func(pcie.Completion)
}

func newRQFetch() *rqFetch {
	x := &rqFetch{}
	x.done = func(c pcie.Completion) { rqFetchDone(x, c) }
	return x
}

// rqFetchDone is the descriptor read's completion: recycle the record,
// then hand the batch to the queue unless it was reset meanwhile.
func rqFetchDone(x *rqFetch, c pcie.Completion) {
	rq, ep, seq, n := x.rq, x.ep, x.seq, x.n
	x.rq = nil
	rq.n.rqFetches.Put(x)
	if rq.epoch == ep {
		rq.fetchDone(seq, n, c)
	}
}

// rxDone carries a placed packet's metadata through its payload DMA write
// to the receive-CQE push. done is bound once, like sqFetch.done.
type rxDone struct {
	sim.Link[rxDone]
	rq   *RQ
	ep   uint32
	cqe  CQE
	done func()
}

func newRxDone() *rxDone {
	x := &rxDone{}
	x.done = func() { rqPlaceDone(x) }
	return x
}

// rqPlaceDone fires when the packet payload landed in the host buffer:
// push the receive completion unless the queue was reset meanwhile.
func rqPlaceDone(x *rxDone) {
	rq, ep, cqe := x.rq, x.ep, x.cqe
	x.rq = nil
	rq.n.rxDones.Put(x)
	if rq.epoch == ep && rq.CQ != nil {
		rq.CQ.Push(cqe)
	}
}
