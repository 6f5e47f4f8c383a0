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

	sqRing    uint64
	txBufs    uint64
	txBufSz   int
	sqSize    int
	rqEntries int
	pi, ci    uint32
	rqPI      uint32
	queued    sim.FIFO[[]byte]
	scratch   [nic.SendWQESize]byte // ring-descriptor marshal buffer

	// cur reassembles the incoming message (SRQ delivers per-packet
	// CQEs): fragments are read out of the receive buffers into this
	// one scratch, sized for the largest message when the first fragment
	// arrives, and a complete message leaves as one exact-length copy.
	cur     []byte
	recycle func(nic.CQE)

	// OnMessage delivers fully reassembled incoming messages.
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
	e := &RDMAEndpoint{drv: d, sqSize: cfg.SendEntries, rqEntries: cfg.RecvEntries,
		txBufSz: cfg.MaxMsgBytes}

	scqRing := d.mem.Alloc(uint64(cfg.SendEntries)*nic.CQESize, 64)
	scq := d.nic.CreateCQ(nic.CQConfig{Ring: d.fab.AddrOf(d.mem, scqRing), Size: cfg.SendEntries,
		OnCQE: func(c nic.CQE) { e.sendComplete(c) }})
	e.sqRing = d.mem.Alloc(uint64(cfg.SendEntries)*nic.SendWQESize, 64)
	e.txBufs = d.mem.Alloc(uint64(cfg.SendEntries)*uint64(cfg.MaxMsgBytes), 4096)
	sq := d.nic.CreateSQ(nic.SQConfig{Ring: d.fab.AddrOf(d.mem, e.sqRing), Size: cfg.SendEntries, CQ: scq})

	// Receive: MPRQ SRQ with 32 KiB buffers.
	const bufBytes = 32 << 10
	rcqRing := d.mem.Alloc(uint64(cfg.RecvEntries)*16*nic.CQESize, 64)
	rcq := d.nic.CreateCQ(nic.CQConfig{Ring: d.fab.AddrOf(d.mem, rcqRing), Size: cfg.RecvEntries * 16,
		OnCQE: func(c nic.CQE) { e.recvComplete(c) }})
	rqRing := d.mem.Alloc(uint64(cfg.RecvEntries)*nic.RecvWQESize, 64)
	rxBufs := d.mem.Alloc(uint64(cfg.RecvEntries)*bufBytes, 4096)
	rq := d.nic.CreateRQ(nic.RQConfig{Ring: d.fab.AddrOf(d.mem, rqRing), Size: cfg.RecvEntries,
		CQ: rcq, StrideSize: 256})
	for i := 0; i < cfg.RecvEntries; i++ {
		w := nic.RecvWQE{Addr: d.fab.AddrOf(d.mem, rxBufs+uint64(i)*bufBytes), Len: bufBytes, StrideLog2: 8}
		d.mem.WriteAt(rqRing+uint64(i)*nic.RecvWQESize, w.Marshal())
	}
	d.doorbell(nic.RQDoorbellOffset(rq.ID), uint32(cfg.RecvEntries))
	// In-order recycling driven from CQEs, same as the Ethernet port.
	e.armRecycle(rq, cfg.RecvEntries, bufBytes)

	e.QP = d.nic.CreateQP(nic.QPConfig{SQ: sq, RQ: rq, MTU: cfg.MTU})
	d.queues = append(d.queues, e)
	return e
}

// armRecycle reposts receive buffers as the NIC consumes them, tracking
// stride consumption like the FLD ring manager does.
func (e *RDMAEndpoint) armRecycle(rq *nic.RQ, entries, bufBytes int) {
	e.rqPI = uint32(entries)
	curBuf := int32(-1)
	strides := 0
	per := bufBytes / 256
	e.recycle = func(c nic.CQE) {
		bufIdx := int32(c.Index >> 8)
		bump := func() {
			e.rqPI++
			curBuf = -1
			strides = 0
			e.ringRQDoorbell()
		}
		if curBuf >= 0 && bufIdx != curBuf {
			bump()
		}
		curBuf = bufIdx
		strides += (int(c.ByteCount) + 255) / 256
		if strides >= per {
			bump()
		}
	}
}

func (e *RDMAEndpoint) rings() (*nic.SQ, *nic.RQ) { return e.QP.SQ, e.QP.RQ }

func (e *RDMAEndpoint) ringRQDoorbell() {
	e.drv.doorbell(nic.RQDoorbellOffset(e.QP.RQ.ID), e.rqPI)
}

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
	if e.QP.SQ.State() == nic.QueueError {
		e.drv.flushSQ(e.QP.SQ, e.pi, &e.ci)
		e.drainQueued()
		recovered = true
	}
	if e.QP.RQ.State() == nic.QueueError {
		e.cur = e.cur[:0]
		e.QP.RQ.Reset()
		e.drv.Recoveries++
		e.ringRQDoorbell()
		recovered = true
	}
	return recovered
}

// Send transmits one message over the QP, charging CPU cost.
func (e *RDMAEndpoint) Send(data []byte) {
	if e.drv.downN > 0 {
		e.drv.DownTxDrops++
		return
	}
	x := e.drv.txPosts.Get()
	x.e, x.frame = e, data
	e.drv.cpuWork(e.drv.Prm.TxCost, rdmaPostRun, x)
}

// rdmaPostRun: the TX CPU cost is paid; post the message, or queue it in
// software behind a full ring.
func rdmaPostRun(a any) {
	x := a.(*txPost)
	e, data := x.e, x.frame
	*x = txPost{}
	e.drv.txPosts.Put(x)
	if int(e.pi-e.ci) >= e.sqSize {
		e.queued.Push(data)
		return
	}
	e.post(data)
}

// drainQueued posts software-queued messages into freed ring slots.
func (e *RDMAEndpoint) drainQueued() {
	for e.queued.Len() > 0 && int(e.pi-e.ci) < e.sqSize {
		e.post(e.queued.Pop())
	}
}

func (e *RDMAEndpoint) post(data []byte) {
	slot := uint64(e.pi) % uint64(e.sqSize)
	bufOff := e.txBufs + slot*uint64(e.txBufSz)
	e.drv.mem.WriteAt(bufOff, data)
	w := nic.SendWQE{Opcode: nic.OpSend, Index: uint16(e.pi), Signal: true,
		Addr: e.drv.fab.AddrOf(e.drv.mem, bufOff), Len: uint32(len(data))}
	w.MarshalInto(e.scratch[:])
	e.drv.mem.WriteAt(e.sqRing+slot*nic.SendWQESize, e.scratch[:])
	e.pi++
	e.drv.TxPackets++
	e.drv.doorbell(nic.SQDoorbellOffset(e.QP.SQ.ID), e.pi)
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
		if e.pi != e.ci {
			e.drv.flushSQ(e.QP.SQ, e.pi, &e.ci)
			e.drainQueued()
		}
	}
}

func (e *RDMAEndpoint) sendComplete(c nic.CQE) {
	if e.drv.downN > 0 {
		e.drv.DownCQEs++
		return
	}
	if e.ci == e.pi {
		// Stale completion for a slot already flushed by a reconnect;
		// its loss was accounted there.
		return
	}
	if c.Opcode == nic.CQEError {
		// SynRetryExceeded flushes the QP with one error CQE per
		// unacknowledged message; each consumed its SQ slot. Recovery
		// (ReconnectQPs) needs both ends and is left to the application.
		e.drv.CQEErrors++
		e.drv.TxErrors++
		e.ci++
		return
	}
	e.ci++
	if e.OnSendComplete != nil {
		e.OnSendComplete()
	}
	e.drainQueued()
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
	if e.recycle != nil {
		e.recycle(c)
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
		e.cur = make([]byte, 0, e.txBufSz) // MaxMsgBytes
	}
	base := e.drv.fab.PortOf(e.drv.mem).Base()
	n := len(e.cur)
	e.cur = slices.Grow(e.cur, int(c.ByteCount))[:n+int(c.ByteCount)]
	e.drv.mem.ReadInto(c.Addr-base, e.cur[n:])
	if !c.Last {
		return
	}
	// The application may keep the message; the scratch is about to take
	// the next one.
	msg := slices.Clone(e.cur)
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
	}
}
