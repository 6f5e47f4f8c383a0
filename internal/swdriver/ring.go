package swdriver

import (
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// sendRing is an EthPort's or an RDMAEndpoint's send queue: the ring, its
// descriptors and buffers in host memory, and the backlog of sends waiting
// for a slot. The owner posts (descriptor flavour, signalling and
// doorbells are its own) and decides what a completion retires.
type sendRing struct {
	drv     *Driver
	owner   queueSet
	sq      *nic.SQ
	ring    nic.SendRing[struct{}]
	wqes    uint64 // descriptor ring, as an offset into host memory
	bufs    uint64 // one bufSz buffer per slot, likewise
	bufSz   int
	backlog sim.FIFO[[]byte]      // pooled copies of the parked sends
	queued  *telemetry.Counter    // sends parked in the backlog (nil-safe)
	scratch [nic.SendWQESize]byte // descriptor marshal buffer
}

// newSendRing allocates the completion queue, descriptor ring and buffers
// of a send ring in host memory and creates its SQ from cfg.
func (d *Driver) newSendRing(owner queueSet, cfg nic.SQConfig, bufSz int, onCQE func(nic.CQE)) sendRing {
	s := sendRing{drv: d, owner: owner, bufSz: bufSz, ring: nic.SendRing[struct{}]{Size: uint32(cfg.Size)}}
	cq := d.mem.Alloc(uint64(cfg.Size)*nic.CQESize, 64)
	cfg.CQ = d.nic.CreateCQ(nic.CQConfig{Ring: d.fab.AddrOf(d.mem, cq), Size: cfg.Size, OnCQE: onCQE})
	s.wqes = d.mem.Alloc(uint64(cfg.Size)*nic.SendWQESize, 64)
	s.bufs = d.mem.Alloc(uint64(cfg.Size)*uint64(bufSz), 4096)
	cfg.Ring = d.fab.AddrOf(d.mem, s.wqes)
	s.sq = d.nic.CreateSQ(cfg)
	return s
}

// send charges the TX CPU cost, then submits a pooled copy of data; a
// dead process drops it.
func (s *sendRing) send(data []byte) {
	if s.drv.downN > 0 {
		s.drv.DownTxDrops++
		return
	}
	x := s.drv.txPosts.Get()
	x.s, x.frame = s, s.drv.eng.Bufs().Clone(data)
	s.drv.cpuWork(s.drv.Prm.TxCost, txPostRun, x)
}

// txPost carries one frame or RDMA message through the TX CPU cost to
// its send ring.
type txPost struct {
	sim.Link[txPost]
	s     *sendRing
	frame []byte
}

// txPostRun: the cost is paid; the owner posts the frame, or it waits
// behind a full ring.
func txPostRun(a any) {
	x := a.(*txPost)
	s, frame := x.s, x.frame
	*x = txPost{}
	s.drv.txPosts.Put(x)
	if s.ring.Space() == 0 {
		s.queued.Inc()
		s.backlog.Push(frame)
		return
	}
	s.post(frame)
}

// drain posts parked sends into freed slots.
func (s *sendRing) drain() {
	for s.backlog.Len() > 0 && s.ring.Space() > 0 {
		s.post(s.backlog.Pop())
	}
}

// post has the owner copy frame into the ring, then puts it back.
func (s *sendRing) post(frame []byte) {
	s.owner.post(frame)
	s.drv.eng.Bufs().Put(frame)
}

// write copies data into the buffer of slot PI, writes the slot's
// descriptor and posts it.
func (s *sendRing) write(data []byte, signal bool) {
	slot := uint64(s.ring.PI % s.ring.Size)
	buf := s.bufs + slot*uint64(s.bufSz)
	s.drv.mem.WriteAt(buf, data)
	w := nic.SendWQE{Opcode: nic.OpSend, Index: uint16(s.ring.PI), Signal: signal,
		Addr: s.drv.fab.AddrOf(s.drv.mem, buf), Len: uint32(len(data))}
	// WriteAt copies synchronously, so the descriptor marshals into the
	// ring's scratch buffer instead of a fresh slice.
	w.MarshalInto(s.scratch[:])
	s.drv.mem.WriteAt(s.wqes+slot*nic.SendWQESize, s.scratch[:])
	s.ring.Post(struct{}{})
	s.drv.TxPackets++
}

// flush is the host's recovery of a send queue: the posted work is
// counted lost, and the SQ restarts empty at the driver's own producer
// index (not the last doorbell's), so the NIC never re-fetches a
// discarded slot. The backlog then refills it.
func (s *sendRing) flush() {
	s.drv.TxErrors += int64(s.ring.Flush())
	s.sq.ResetTo(s.ring.PI, s.ring.PI)
	s.drv.Recoveries++
	s.drain()
}

// crash loses the backlog with the process's memory.
func (s *sendRing) crash() {
	s.drv.TxErrors += int64(s.backlog.Len())
	for s.backlog.Len() > 0 {
		s.drv.eng.Bufs().Put(s.backlog.Pop())
	}
}

// recvRing is an EthPort's or an RDMAEndpoint's receive queue: the RQ and
// the ring that reposts its buffers. The owner decides when to repost.
type recvRing struct {
	nic.RecvRing
	drv       *Driver
	rq        *nic.RQ
	doorbells *telemetry.Counter // nil-safe
}

// newRecvRing allocates a receive queue's completion queue (cqes
// entries), descriptors and buffers in host memory and creates the RQ; the
// owner rings the first doorbell. A nonzero strideLog2 makes it a
// multi-packet queue of 1<<strideLog2 B strides.
func (d *Driver) newRecvRing(entries, cqes, bufSz int, strideLog2 uint8, onCQE func(nic.CQE)) recvRing {
	cq := d.mem.Alloc(uint64(cqes)*nic.CQESize, 64)
	cfg := nic.RQConfig{Size: entries, CQ: d.nic.CreateCQ(nic.CQConfig{Ring: d.fab.AddrOf(d.mem, cq), Size: cqes, OnCQE: onCQE})}
	wqes := d.mem.Alloc(uint64(entries)*nic.RecvWQESize, 64)
	bufs := d.mem.Alloc(uint64(entries)*uint64(bufSz), 4096)
	cfg.Ring = d.fab.AddrOf(d.mem, wqes)
	r := recvRing{drv: d, RecvRing: nic.RecvRing{Size: entries, Strides: 1, PI: uint32(entries)}}
	if strideLog2 > 0 {
		cfg.StrideSize = 1 << strideLog2
		r.Strides = bufSz >> strideLog2
	}
	r.rq = d.nic.CreateRQ(cfg)
	for i := range entries {
		w := nic.RecvWQE{Addr: d.fab.AddrOf(d.mem, bufs+uint64(i*bufSz)), Len: uint32(bufSz), StrideLog2: strideLog2}
		d.mem.WriteAt(wqes+uint64(i)*nic.RecvWQESize, w.Marshal())
	}
	return r
}

func (r *recvRing) doorbell(pi uint32) {
	r.doorbells.Inc()
	r.drv.doorbell(nic.RQDoorbellOffset(r.rq.ID), pi)
}

// reset is the recovery of an errored RQ: RQ.Reset keeps the posted
// descriptors, so re-ringing PI re-arms the whole receive pipeline.
func (r *recvRing) reset() {
	r.rq.Reset()
	r.drv.Recoveries++
	r.doorbell(r.PI)
}

// reattach resets an errored RQ and tops the ring back up (see
// EthPort.reattach).
func (r *recvRing) reattach() {
	if r.rq.State() == nic.QueueError {
		r.rq.Reset()
		r.drv.Recoveries++
	}
	r.TopUp(r.rq.Posted())
	r.doorbell(r.PI)
}
