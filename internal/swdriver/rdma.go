package swdriver

import (
	"slices"

	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
)

// RDMAEndpoint is a verbs-style software endpoint: a QP with host-memory
// rings, used as the client side of the paper's FLD-R experiments (the
// load generator and the ZUC cryptodev client run on one of these).
type RDMAEndpoint struct {
	drv *Driver
	QP  *nic.QP
	tx  sendRing
	rx  recvRing

	// cur reassembles the incoming message (SRQ delivers per-packet
	// CQEs): fragments are read out of the receive buffers into this
	// one scratch, sized for the largest message when the first fragment
	// arrives, and a complete message is lent from it to OnMessage.
	cur []byte

	// OnMessage delivers each fully reassembled incoming message, lent
	// for the call from the reassembly scratch: a handler that keeps the
	// bytes copies them.
	OnMessage func(data []byte)
	// OnSendComplete fires when a sent message is acknowledged.
	OnSendComplete func()
}

// RDMAConfig sizes an endpoint.
type RDMAConfig struct {
	SendEntries int // power of two
	RecvEntries int // power of two
	MaxMsgBytes int
	MTU         int
}

// NewRDMAEndpoint builds the endpoint: an SQ for messages and an MPRQ SRQ
// for receives, all rings in host memory.
func (d *Driver) NewRDMAEndpoint(cfg RDMAConfig) *RDMAEndpoint {
	if cfg.MaxMsgBytes == 0 {
		cfg.MaxMsgBytes = 16 << 10
	}
	e := &RDMAEndpoint{drv: d}
	e.tx = d.newSendRing(e, nic.SQConfig{Size: cfg.SendEntries}, cfg.MaxMsgBytes,
		func(c nic.CQE) { e.sendComplete(c) })
	// Receive: an MPRQ SRQ of 32 KiB buffers in 256 B strides, recycled
	// in order as completions consume them, like the FLD's.
	e.rx = d.newRecvRing(cfg.RecvEntries, cfg.RecvEntries*16, 32<<10, 8,
		func(c nic.CQE) { e.recvComplete(c) })
	e.rx.doorbell(e.rx.PI)
	e.QP = d.nic.CreateQP(nic.QPConfig{SQ: e.tx.sq, RQ: e.rx.rq, MTU: cfg.MTU})
	d.queues = append(d.queues, e)
	return e
}

func (e *RDMAEndpoint) rings() (*sendRing, *recvRing) { return &e.tx, &e.rx }

// Poll makes the endpoint notice Error-state rings even when the error
// CQE that announced them was itself lost to a fault — the same
// watchdog hook EthPort.Poll provides. An errored SQ is flushed (the
// in-flight messages are counted lost, the software queue reposts into
// the clean ring); an errored RQ is reset and re-armed at the current
// producer index, discarding any half-reassembled message. It reports
// whether anything needed recovering. Note this repairs the *rings*
// only: a QP pair in the Error state additionally needs ReconnectQPs,
// which takes both ends.
func (e *RDMAEndpoint) Poll() bool {
	recovered := false
	if e.tx.sq.State() == nic.QueueError {
		e.tx.flush()
		recovered = true
	}
	if e.rx.rq.State() == nic.QueueError {
		e.cur = e.cur[:0]
		e.rx.reset()
		recovered = true
	}
	return recovered
}

// Send transmits a copy of one message over the QP, charging CPU cost.
func (e *RDMAEndpoint) Send(data []byte) { e.tx.send(data) }

// post writes every message signalled and rings its doorbell at once.
func (e *RDMAEndpoint) post(data []byte) {
	e.tx.write(data, true)
	e.drv.doorbell(nic.SQDoorbellOffset(e.tx.sq.ID), e.tx.ring.PI)
}

// ReconnectEndpoints re-establishes the RC connection between two
// endpoints after a transport failure (retry-exceeded flush, injected
// QP error). Beyond the QP-level modify cycle, the *driver* state of
// the dead incarnation must go too: unacknowledged messages will never
// complete (the reconnected QP cleared its retransmission queue), so
// their SQ slots are flushed and counted as TxErrors, and any
// half-reassembled receive is discarded — its remaining fragments died
// with the old connection, and splicing a new message onto them would
// deliver corrupt bytes.
func ReconnectEndpoints(a, b *RDMAEndpoint) {
	nic.ReconnectQPs(a.QP, b.QP)
	for _, e := range []*RDMAEndpoint{a, b} {
		e.cur = e.cur[:0]
		if e.tx.ring.Len() > 0 {
			e.tx.flush()
		}
	}
}

func (e *RDMAEndpoint) sendComplete(c nic.CQE) {
	if e.drv.downN > 0 {
		e.drv.DownCQEs++
		return
	}
	if e.tx.ring.Len() == 0 {
		// Stale completion for a slot already flushed by a reconnect;
		// its loss was accounted there.
		return
	}
	// Each CQE retires one slot, not every slot up to its index: a
	// message's success CQE comes from the QP on its ACK, but a gather or
	// bad-descriptor error CQE comes from the SQ at once, ahead of the
	// ACKs of messages posted before it.
	if c.Opcode == nic.CQEError {
		// A queue-fatal CQE completes nothing: Poll flushes the ring.
		// SynRetryExceeded flushes the QP with one error CQE per
		// unacknowledged message; each consumed its SQ slot. Recovery
		// (ReconnectQPs) needs both ends and is left to the application.
		e.drv.CQEErrors++
		if c.Syndrome != nic.SynQueueErr {
			e.drv.TxErrors++
			e.tx.ring.Pop()
		}
		return
	}
	e.tx.ring.Pop()
	if e.OnSendComplete != nil {
		e.OnSendComplete()
	}
	e.tx.drain()
}

func (e *RDMAEndpoint) recvComplete(c nic.CQE) {
	if e.drv.downN > 0 {
		e.drv.DownCQEs++
		return
	}
	if c.Opcode == nic.CQEError {
		e.drv.CQEErrors++
		e.cur = e.cur[:0]
		return
	}
	for n, _ := e.rx.Fill(int32(c.Index>>8), (int(c.ByteCount)+255)/256); n > 0; n-- {
		e.rx.doorbell(e.rx.PI - uint32(n-1))
	}
	x := e.drv.rxWorks.Get()
	x.e, x.c = e, c
	e.drv.cpuWork(e.drv.Prm.RxCost, rdmaRxRun, x)
}

// rdmaRxRun: the RX CPU cost is paid; read the fragment out of its
// receive buffer into the reassembly scratch and deliver a complete
// message.
func rdmaRxRun(a any) {
	x := a.(*rxWork)
	e, c := x.e, x.c
	*x = rxWork{}
	e.drv.rxWorks.Put(x)
	if e.cur == nil {
		e.cur = make([]byte, 0, e.tx.bufSz) // MaxMsgBytes
	}
	base := e.drv.host.Base()
	n := len(e.cur)
	e.cur = slices.Grow(e.cur, int(c.ByteCount))[:n+int(c.ByteCount)]
	e.drv.mem.ReadInto(c.Addr-base, e.cur[n:])
	if !c.Last {
		return
	}
	msg := e.cur // lent to OnMessage; the scratch takes the next one after
	e.cur = e.cur[:0]
	// Integrity check (the model's ICRC stand-in): the CQE's flow tag
	// carries the transport's byte count for the whole message. A shorter
	// reassembly means a fragment's payload DMA was lost after the
	// transport already acknowledged it (e.g. a dropped PCIe TLP);
	// delivering it would hand the application spliced garbage, so the
	// driver discards the message and counts the loss.
	if len(msg) != int(c.FlowTag) {
		e.drv.RxErrors++
		return
	}
	e.drv.RxPackets++
	if e.OnMessage != nil {
		e.OnMessage(msg)
		sim.Poison(msg)
	}
}
