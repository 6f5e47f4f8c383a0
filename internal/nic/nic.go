package nic

import (
	"encoding/binary"
	"fmt"

	"flexdriver/internal/netpkt"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Params collects the NIC's timing and transport constants. Defaults are
// calibrated to ConnectX-5-class behaviour on the Innova-2 testbed.
type Params struct {
	// TxPerWQE is the send-engine service time per descriptor; its
	// inverse is the NIC's transmit packet-rate ceiling.
	TxPerWQE sim.Duration
	// RxPerPkt is the receive-engine service time per packet.
	RxPerPkt sim.Duration
	// PipelineDelay is the fixed latency a packet spends crossing the
	// NIC's internal pipeline in each direction.
	PipelineDelay sim.Duration
	// RoCEMTU is the RDMA path MTU (1024 B in the paper's experiments).
	RoCEMTU int
	// RetransmitTimeout triggers go-back-N recovery for RC QPs.
	RetransmitTimeout sim.Duration
	// MaxRetransmits bounds consecutive no-progress retransmissions
	// before the QP transitions to the Error state (IB retry_cnt
	// analogue).
	MaxRetransmits int
	// AckCoalesce acknowledges once per this many completed messages;
	// AckDelay bounds how long an ACK may be withheld.
	AckCoalesce int
	AckDelay    sim.Duration
	// SQWindow bounds per-SQ outstanding descriptor fetches, modeling
	// the NIC's pipelining of PCIe reads.
	SQWindow int
}

// DefaultParams returns the calibrated constants.
func DefaultParams() Params {
	return Params{
		TxPerWQE:          10 * sim.Nanosecond, // ~100 Mpps engine
		RxPerPkt:          10 * sim.Nanosecond,
		PipelineDelay:     150 * sim.Nanosecond,
		RoCEMTU:           1024,
		RetransmitTimeout: 100 * sim.Microsecond,
		MaxRetransmits:    8,
		AckCoalesce:       4,
		AckDelay:          2 * sim.Microsecond,
		SQWindow:          32,
	}
}

// BAR layout: per-SQ doorbell/WQE pages then per-RQ doorbells.
const (
	barSize        = 1 << 20
	sqDoorbellBase = 0x00000
	sqDoorbellStep = 256
	rqDoorbellBase = 0x80000
	rqDoorbellStep = 8
)

// Counters aggregates NIC-level statistics.
type Counters struct {
	TxPackets, TxBytes int64
	RxPackets, RxBytes int64
	Drops              map[DropReason]int64

	// QueueErrors counts SQ/RQ/QP transitions into the Error state;
	// QueueRecoveries counts driver-initiated resets back to Ready.
	QueueErrors     int64
	QueueRecoveries int64

	// DeviceCrashes counts device-level crash windows (Crash calls that
	// actually took the device down); DeviceFLRs counts driver-initiated
	// function-level resets.
	DeviceCrashes int64
	DeviceFLRs    int64
}

func (c *Counters) drop(reason DropReason) {
	if c.Drops == nil {
		c.Drops = make(map[DropReason]int64)
	}
	c.Drops[reason]++
}

// NIC is one simulated adapter. Create with New, attach to a PCIe fabric
// with AttachPCIe, and connect to a peer with ConnectWire (or use the
// eSwitch loopback rules for single-node experiments).
type NIC struct {
	Name string
	Prm  Params

	// MAC and IP identify the NIC's physical port for RoCE framing.
	MAC netpkt.MAC
	IP  netpkt.IP

	eng    *sim.Engine
	fabric *pcie.Fabric
	port   *pcie.Port

	phy Port // physical attachment: cable end or switch port

	esw *ESwitch

	sqs map[uint32]*SQ
	rqs map[uint32]*RQ
	cqs map[uint32]*CQ
	qps map[uint32]*QP

	// vfs holds the virtual functions the PF has created (see vf.go);
	// nil until the first CreateVF. Their queues live in the flat maps
	// above — device-level Crash/FLR cover every function at once.
	vfs    map[int]*VF
	nextVF int

	txEngine *sim.Resource
	rxEngine *sim.Resource
	ets      *etsScheduler // lazily created when a weighted SQ sends

	// Pools of steady-state records (see pool.go).
	fetches   sim.Pool[sqFetch, *sqFetch]
	execs     sim.Pool[sqExec, *sqExec]
	sends     sim.Pool[txSend, *txSend]
	cqws      sim.Pool[cqWrite, *cqWrite]
	rqFetches sim.Pool[rqFetch, *rqFetch]
	rxDones   sim.Pool[rxDone, *rxDone]
	views     sim.Pool[pktView, *pktView]

	nextQN uint32

	// downN counts active crash windows (see Crash/Restart in
	// failure.go); the device is operational only at zero.
	downN int

	Stats Counters

	tlm *nicTelemetry // nil unless SetTelemetry was called
	flt *FaultHooks   // nil unless SetFaults was called
}

// New returns a NIC bound to the engine, with a MAC/IP identity unique
// within the engine. Identity comes from the engine's own allocator, not
// a package global: a fresh engine always numbers its NICs 1, 2, 3, ...,
// so two runs of the same scenario build bit-identical clusters (RSS
// hashes included) — the scenario fuzzer's replay-determinism invariant
// depends on it.
func New(name string, eng *sim.Engine, prm Params) *NIC {
	id := eng.NextID("nic")
	n := &NIC{
		Name: name,
		Prm:  prm,
		MAC:  netpkt.MACFrom(id),
		IP:   netpkt.IPFrom(id),
		eng:  eng,
		sqs:  make(map[uint32]*SQ),
		rqs:  make(map[uint32]*RQ),
		cqs:  make(map[uint32]*CQ),
		qps:  make(map[uint32]*QP),
	}
	n.fetches.New, n.execs.New, n.sends.New, n.rqFetches.New = newSQFetch, newSQExec, newTxSend, newRQFetch
	n.cqws.New, n.rxDones.New = newCQWrite, newRxDone
	n.esw = newESwitch(n)
	n.txEngine = sim.NewResource(eng)
	n.rxEngine = sim.NewResource(eng)
	return n
}

// AttachPCIe connects the NIC to a fabric; the NIC uses the returned port
// as its DMA initiator for all ring and buffer accesses.
func (n *NIC) AttachPCIe(fab *pcie.Fabric, cfg pcie.LinkConfig) *pcie.Port {
	n.fabric = fab
	n.port = fab.Attach(n, cfg)
	return n.port
}

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.eng }

// ESwitch returns the NIC's embedded switch for rule programming.
func (n *NIC) ESwitch() *ESwitch { return n.esw }

// PCIeName implements pcie.Device.
func (n *NIC) PCIeName() string { return n.Name }

// BARSize implements pcie.Device.
func (n *NIC) BARSize() uint64 { return barSize }

// MMIORead implements pcie.Device. The NIC BAR is write-only in this model
// (doorbells); reads return zeros like reserved registers. A crashed
// device does not respond at all: no completion, so the requester sees a
// completion timeout.
func (n *NIC) MMIORead(offset uint64, dst []byte) bool {
	clear(dst)
	return n.downN == 0
}

// MMIOWrite implements pcie.Device: doorbell decoding. Writes to a
// crashed device are posted into the void and counted.
func (n *NIC) MMIOWrite(offset uint64, data []byte) {
	if n.downN > 0 {
		n.drop(DropDeviceDown)
		return
	}
	switch {
	case offset >= sqDoorbellBase && offset < rqDoorbellBase:
		id := uint32((offset - sqDoorbellBase) / sqDoorbellStep)
		sq := n.sqs[id]
		if sq == nil {
			n.drop(DropDoorbellUnknownSQ)
			return
		}
		switch len(data) {
		case 4:
			if f := n.flt; f != nil && f.DropDoorbell != nil && f.DropDoorbell(n) {
				n.drop(DropDoorbellInjected)
				return
			}
			sq.ringDoorbell(binary.BigEndian.Uint32(data))
		case SendWQESize, SendWQEMMIOSize:
			sq.pushWQE(data)
		default:
			n.drop(DropDoorbellBadSize)
		}
	case offset >= rqDoorbellBase:
		id := uint32((offset - rqDoorbellBase) / rqDoorbellStep)
		rq := n.rqs[id]
		if rq == nil {
			n.drop(DropDoorbellUnknownRQ)
			return
		}
		if len(data) == 4 {
			if f := n.flt; f != nil && f.DropDoorbell != nil && f.DropDoorbell(n) {
				n.drop(DropDoorbellInjected)
				return
			}
			rq.ringDoorbell(binary.BigEndian.Uint32(data))
		}
	}
}

// SQDoorbellOffset returns the BAR offset of a send queue's doorbell.
func SQDoorbellOffset(sqn uint32) uint64 {
	return sqDoorbellBase + uint64(sqn)*sqDoorbellStep
}

// RQDoorbellOffset returns the BAR offset of a receive queue's doorbell.
func RQDoorbellOffset(rqn uint32) uint64 {
	return rqDoorbellBase + uint64(rqn)*rqDoorbellStep
}

func (n *NIC) allocQN() uint32 {
	n.nextQN++
	return n.nextQN
}

// --- Queue creation (control plane; invoked by driver software) ---------

// CQConfig configures a completion queue.
type CQConfig struct {
	Ring uint64 // PCIe address of the CQE ring
	Size int    // entries
	// OnCQE is invoked (in virtual time) after a CQE lands in the ring,
	// standing in for MSI-X/polling observation by the consumer.
	OnCQE func(CQE)
}

// CreateCQ allocates a completion queue on the physical function. VF
// queues are created through VF.CreateCQ, which enforces the quota.
func (n *NIC) CreateCQ(cfg CQConfig) *CQ {
	return n.createCQ(cfg, nil)
}

func (n *NIC) createCQ(cfg CQConfig, vf *VF) *CQ {
	cq := &CQ{n: n, ID: n.allocQN(), Ring: cfg.Ring, Size: cfg.Size, onCQE: cfg.OnCQE, vf: vf}
	n.cqs[cq.ID] = cq
	if n.tlm != nil {
		cq.instrument(n.queueScope(vf))
	}
	return cq
}

// queueScope picks the telemetry scope a queue instruments under: the
// owning VF's vf<ID>/ sub-scope, or the NIC scope for PF queues — so
// per-function counters are separable in the tree and PF paths are
// byte-identical to the pre-VF layout.
func (n *NIC) queueScope(vf *VF) *telemetry.Scope {
	if vf != nil && vf.scope != nil {
		return vf.scope
	}
	return n.tlm.scope
}

// SQConfig configures a send queue.
type SQConfig struct {
	Ring  uint64 // PCIe address of the 64 B-descriptor ring
	Size  int    // entries (power of two)
	CQ    *CQ
	VPort *VPort // egress port for raw Ethernet SQs
	// Shaper, when set, rate-limits this queue's egress.
	Shaper *sim.TokenBucket
	// Weight, when set (>0), enrolls the queue in ETS weighted
	// arbitration of the egress port.
	Weight int
}

// CreateSQ allocates a send queue on the physical function. VF queues
// are created through VF.CreateSQ, which enforces quota and domain.
func (n *NIC) CreateSQ(cfg SQConfig) *SQ {
	return n.createSQ(cfg, nil)
}

func (n *NIC) createSQ(cfg SQConfig, vf *VF) *SQ {
	if cfg.Size&(cfg.Size-1) != 0 {
		panic(fmt.Sprintf("nic: SQ size %d not a power of two", cfg.Size))
	}
	sq := &SQ{n: n, ID: n.allocQN(), Ring: cfg.Ring, Size: cfg.Size,
		CQ: cfg.CQ, VPort: cfg.VPort, Shaper: cfg.Shaper, Weight: cfg.Weight,
		vf: vf, mmio: make(map[uint32]*sqExec)}
	n.sqs[sq.ID] = sq
	if n.tlm != nil {
		sq.instrument(n.queueScope(vf))
	}
	return sq
}

// RQConfig configures a receive queue (or shared MPRQ).
type RQConfig struct {
	Ring uint64 // PCIe address of the 16 B-descriptor ring (host memory)
	Size int    // entries (power of two)
	CQ   *CQ
	// StrideSize enables multi-packet receive buffers: each posted
	// buffer is carved into strides and consumed packet by packet.
	// Zero means one packet per buffer.
	StrideSize int
}

// CreateRQ allocates a receive queue on the physical function. VF
// queues are created through VF.CreateRQ, which enforces the quota.
func (n *NIC) CreateRQ(cfg RQConfig) *RQ {
	return n.createRQ(cfg, nil)
}

func (n *NIC) createRQ(cfg RQConfig, vf *VF) *RQ {
	if cfg.Size&(cfg.Size-1) != 0 {
		panic(fmt.Sprintf("nic: RQ size %d not a power of two", cfg.Size))
	}
	rq := &RQ{n: n, ID: n.allocQN(), Ring: cfg.Ring, Size: cfg.Size,
		CQ: cfg.CQ, StrideSize: cfg.StrideSize, vf: vf}
	n.rqs[rq.ID] = rq
	if n.tlm != nil {
		rq.instrument(n.queueScope(vf))
	}
	return rq
}

// --- Send queue ----------------------------------------------------------

// SQ is a send queue: the NIC consumes 64 B descriptors from its ring (or
// pushed by MMIO) between the consumer index and the doorbell'd producer
// index.
type SQ struct {
	n     *NIC
	ID    uint32
	Ring  uint64
	Size  int
	CQ    *CQ
	VPort *VPort
	QP    *QP // non-nil when this SQ feeds an RDMA queue pair
	vf    *VF // owning virtual function; nil for PF queues

	Shaper *sim.TokenBucket
	Weight int // >0: ETS-arbitrated egress

	pi, ci   uint32
	inflight int
	mmio     map[uint32]*sqExec // WQEs pushed via WQE-by-MMIO, by index

	// state gates all processing; epoch invalidates in-flight fetch and
	// execute callbacks across an error/reset cycle so a stale DMA
	// completion cannot corrupt a recovered queue.
	state QueueState
	epoch uint32

	// Telemetry handles (nil-safe; see instrument).
	tDoorbells, tWQEMMIO    *telemetry.Counter
	tFetchReads             *telemetry.Counter
	tFetchedWQEs, tExecuted *telemetry.Counter
	tShaped                 *telemetry.Counter
	tFetchBatch             *telemetry.Histogram
}

// ringDoorbell advances the producer index (from a 4 B doorbell write).
func (sq *SQ) ringDoorbell(pi uint32) {
	sq.tDoorbells.Inc()
	if int32(pi-sq.pi) < 0 {
		return // stale doorbell
	}
	sq.pi = pi
	sq.kick()
}

// pushWQE accepts a 64 B descriptor written directly over MMIO
// (WQE-by-MMIO): the descriptor needs no ring read, and the write itself
// acts as a doorbell for one entry.
func (sq *SQ) pushWQE(b []byte) {
	sq.tWQEMMIO.Inc()
	// The MMIO write's buffer dies with the write; the descriptor waits
	// for its txEngine slot inside the pooled record that will carry it.
	x := sq.n.execs.Get()
	x.raw = x.desc[:copy(x.desc[:], b)]
	sq.mmio[sq.pi] = x
	sq.pi++
	sq.kick()
}

// sqFetchBatch is how many ring descriptors one PCIe read covers (the
// hardware fetches WQEs in cache-line bursts).
const sqFetchBatch = 4

// kick starts descriptor processing for any posted-but-unfetched entries,
// keeping at most SQWindow descriptors in flight. Ring-resident
// descriptors are fetched in batched reads; MMIO-pushed ones skip the
// fetch entirely.
func (sq *SQ) kick() {
	if sq.state != QueueReady {
		return
	}
	ep := sq.epoch
	for sq.ci+uint32(sq.inflight) != sq.pi && sq.inflight < sq.n.Prm.SQWindow {
		idx := sq.ci + uint32(sq.inflight)
		if x, ok := sq.mmio[idx]; ok {
			delete(sq.mmio, idx)
			sq.inflight++
			x.sq, x.ep, x.idx = sq, ep, idx
			sq.n.eng.AtArg(sq.n.txEngine.Acquire(sq.n.Prm.TxPerWQE), sqExecRun, x)
			continue
		}
		// Batch consecutive ring descriptors into one read, stopping at
		// an MMIO-pushed entry, the window, the ring end, or PI.
		n := 0
		slot := idx % uint32(sq.Size)
		for n < sqFetchBatch &&
			sq.inflight+n < sq.n.Prm.SQWindow &&
			idx+uint32(n) != sq.pi &&
			int(slot)+n < sq.Size {
			if _, pushed := sq.mmio[idx+uint32(n)]; pushed {
				break
			}
			n++
		}
		sq.inflight += n
		if f := sq.n.flt; f != nil && f.FailWQEFetch != nil && f.FailWQEFetch(sq) {
			sq.enterError(SynQueueErr)
			return
		}
		sq.tFetchReads.Inc()
		sq.tFetchedWQEs.Add(int64(n))
		sq.tFetchBatch.Observe(int64(n))
		x := sq.n.fetches.Get()
		x.sq, x.ep, x.first, x.count = sq, ep, idx, n
		sq.n.port.Read(sq.Ring+uint64(slot)*SendWQESize, n*SendWQESize, x.done)
	}
}

// execute runs one fetched descriptor through the transmit path. It
// reports whether x went on to carry the descriptor through a payload
// gather, whose completion (sqExecGathered) recycles the record then.
func (sq *SQ) execute(x *sqExec) (gathering bool) {
	ep, idx := x.ep, x.idx
	sq.tExecuted.Inc()
	wqe, err := ParseSendWQE(x.raw)
	if err != nil || wqe.Opcode == opInvalid {
		sq.retire(ep, idx, CQE{Opcode: CQEError, Syndrome: SynBadWQE, Index: uint16(idx), Queue: sq.ID}, true)
		return false
	}
	wqe.Index = uint16(idx)
	if wqe.Opcode == OpNop {
		sq.retire(ep, idx, CQE{Opcode: CQESend, Index: uint16(idx), Queue: sq.ID}, wqe.Signal)
		return false
	}
	if wqe.Inline != nil {
		sq.dispatch(ep, idx, wqe, wqe.Inline)
		return false
	}
	x.wqe = wqe
	sq.n.port.Read(wqe.Addr, int(wqe.Len), x.gathered)
	return true
}

// dispatch hands the borrowed payload to the QP transport, which frames
// it, or to the Ethernet egress path, which copies it.
func (sq *SQ) dispatch(ep uint32, idx uint32, wqe SendWQE, data []byte) {
	if sq.QP != nil {
		sq.QP.send(idx, wqe, data)
		// RDMA completions are written on ACK by the QP; the SQ slot
		// itself retires once the transport owns the message.
		sq.complete(idx)
		return
	}
	// Raw Ethernet: the payload is a complete frame, and it outlives the
	// borrowed completion or descriptor it came in, so it is copied. The
	// transmit state rides in a pooled record from dispatch through the
	// shaper delay to the egress-complete retire (see pool.go).
	x := sq.n.sends.Get()
	x.sq, x.ep, x.idx = sq, ep, idx
	x.frame, x.len, x.flowTag, x.signal = sq.n.eng.Bufs().Clone(data), len(data), wqe.FlowTag, wqe.Signal
	if sq.Shaper != nil {
		if d := sq.Shaper.Reserve(len(data)); d > 0 {
			sq.tShaped.Inc()
			sq.n.eng.AfterArg(d, txSendFire, x)
			return
		}
	}
	txSendFire(x)
}

// complete frees the descriptor slot and pulls in more work.
func (sq *SQ) complete(idx uint32) {
	sq.ci++
	sq.inflight--
	sq.kick()
}

// retire completes the slot and optionally writes a CQE. ep guards
// against retiring into a queue that was reset while the work was in
// flight (e.g. an egress completion racing a queue flush).
func (sq *SQ) retire(ep uint32, idx uint32, cqe CQE, signal bool) {
	if sq.epoch != ep {
		return
	}
	sq.complete(idx)
	if signal && sq.CQ != nil {
		sq.CQ.Push(cqe)
	}
}

// CI exposes the consumer index for tests.
func (sq *SQ) CI() uint32 { return sq.ci }

// PI exposes the producer index — the newest work the queue has been
// told about via doorbell or WQE-by-MMIO.
func (sq *SQ) PI() uint32 { return sq.pi }

// Idle reports whether the queue has executed everything posted to it:
// Ready, with the consumer index caught up to the producer. Drain logic
// combines this with the FLD's own accounting to tell an executed-but-
// unsignaled tail apart from work still in flight.
func (sq *SQ) Idle() bool { return sq.state == QueueReady && sq.ci == sq.pi }

// --- Receive queue -------------------------------------------------------

type pendingRx struct {
	data, buf []byte // buf: the pooled frame; data: it or its RoCE payload
	cqe       CQE
}

// RQ is a receive queue. Descriptors live in a ring (host memory in the
// FlexDriver design); the NIC fetches one when it needs a fresh buffer and
// — for MPRQ — packs multiple packets into it, one stride-aligned packet
// at a time.
type RQ struct {
	n          *NIC
	ID         uint32
	Ring       uint64
	Size       int
	CQ         *CQ
	StrideSize int
	vf         *VF // owning virtual function; nil for PF queues

	pi, ci uint32 // ci: next descriptor index to hand to placement

	// state gates packet placement; epoch invalidates in-flight
	// descriptor fetches across an error/reset cycle.
	state QueueState
	epoch uint32

	cur       RecvWQE // buffer being filled; valid while haveCur
	haveCur   bool
	curIdx    uint32
	curOffset int
	backlog   sim.FIFO[pendingRx]

	// Descriptor prefetch pipeline: the NIC reads descriptors ahead in
	// cache-line batches with several reads in flight, like real
	// hardware — without this, per-packet descriptor fetch latency
	// would cap the receive rate at ~1/RTT.
	fetchIdx uint32 // next descriptor index to request
	inflight int
	fetchSeq uint64
	drainSeq uint64
	fetched  map[uint64][]RecvWQE
	ready    sim.FIFO[RecvWQE]

	// WastedBytes counts stride fragmentation (packet skipped to the
	// next buffer because the current one lacked room).
	WastedBytes int64

	// Telemetry handles (nil-safe; see instrument).
	tDoorbells            *telemetry.Counter
	tFetchReads           *telemetry.Counter
	tFetchedDescs         *telemetry.Counter
	tPlaced, tPlacedBytes *telemetry.Counter
}

const (
	rqFetchBatch    = 8 // descriptors per read (two cache lines)
	rqFetchWindow   = 4 // outstanding descriptor reads
	rqReadyLowWater = 16
)

// ringDoorbell advances the producer index: the consumer posted buffers.
func (rq *RQ) ringDoorbell(pi uint32) {
	rq.tDoorbells.Inc()
	if int32(pi-rq.pi) < 0 {
		return
	}
	rq.pi = pi
	rq.prefetch()
	rq.progress()
}

// prefetch keeps the descriptor pipeline full: batched ring reads, a few
// in flight, completions drained in order.
func (rq *RQ) prefetch() {
	if rq.state != QueueReady {
		return
	}
	ep := rq.epoch
	for rq.inflight < rqFetchWindow &&
		int32(rq.pi-rq.fetchIdx) > 0 &&
		rq.ready.Len() < rqReadyLowWater {
		n := int(rq.pi - rq.fetchIdx)
		n = min(n, rqFetchBatch)
		// Don't wrap within one read.
		slot := rq.fetchIdx % uint32(rq.Size)
		if int(slot)+n > rq.Size {
			n = rq.Size - int(slot)
		}
		seq := rq.fetchSeq
		rq.fetchSeq++
		rq.fetchIdx += uint32(n)
		rq.inflight++
		rq.tFetchReads.Inc()
		rq.tFetchedDescs.Add(int64(n))
		x := rq.n.rqFetches.Get()
		x.rq, x.ep, x.seq, x.n = rq, ep, seq, n
		rq.n.port.Read(rq.Ring+uint64(slot)*RecvWQESize, n*RecvWQESize, x.done)
	}
}

// fetchDone takes the completion of descriptor read seq (n descriptors)
// on a queue that was not reset while the read was in flight. Descriptors
// reach ready in ring order: the read that is next to drain parses
// straight onto it, one that overtook an earlier read parks its batch in
// fetched until the gap closes.
func (rq *RQ) fetchDone(seq uint64, n int, c pcie.Completion) {
	rq.inflight--
	if !c.OK() {
		rq.enterError(SynQueueErr)
		return
	}
	inOrder := seq == rq.drainSeq
	var batch []RecvWQE
	if !inOrder {
		batch = make([]RecvWQE, 0, n)
	}
	for i := 0; i < n; i++ {
		w, err := ParseRecvWQE(c.Data[i*RecvWQESize:])
		if err != nil {
			rq.n.drop(DropRQBadDesc)
		} else if inOrder {
			rq.ready.Push(w)
		} else {
			batch = append(batch, w)
		}
	}
	if inOrder {
		rq.drainSeq++
	} else {
		if rq.fetched == nil {
			rq.fetched = make(map[uint64][]RecvWQE)
		}
		rq.fetched[seq] = batch
	}
	for len(rq.fetched) > 0 {
		next, ok := rq.fetched[rq.drainSeq]
		if !ok {
			break
		}
		delete(rq.fetched, rq.drainSeq)
		rq.drainSeq++
		for _, w := range next {
			rq.ready.Push(w)
		}
	}
	rq.prefetch()
	rq.progress()
}

// deliver enqueues a received packet for buffer placement. cqe carries the
// metadata the NIC already derived (flow tag, RSS hash, checksum).
func (rq *RQ) deliver(data, buf []byte, cqe CQE) {
	if rq.state != QueueReady {
		// Error state: the queue counts and drops until the driver
		// resets it — it never wedges.
		rq.n.dropFrame(DropRQError, buf)
		return
	}
	// Bound the NIC-internal rx FIFO: a real NIC has shallow buffering
	// and drops when the host does not post buffers fast enough.
	if rq.backlog.Len() >= 256 {
		rq.n.dropFrame(DropRQOverflow, buf)
		return
	}
	rq.backlog.Push(pendingRx{data: data, buf: buf, cqe: cqe})
	rq.progress()
}

// progress places backlog packets into buffers from the prefetched
// descriptor queue. A packet leaves the backlog once place has disposed of
// it; one that does not fit the current buffer's remaining strides stays
// at the head and is retried against the next buffer.
func (rq *RQ) progress() {
	for rq.backlog.Len() > 0 {
		if !rq.haveCur {
			if rq.ready.Len() == 0 {
				if rq.ci == rq.pi {
					// No posted buffers: drop from the tail like
					// hardware.
					rq.n.dropFrame(DropRQNoBuffers, rq.backlog.Pop().buf)
					continue
				}
				// Buffers posted but descriptors still in flight.
				rq.prefetch()
				return
			}
			rq.cur, rq.haveCur = rq.ready.Pop(), true
			rq.curIdx = rq.ci
			rq.curOffset = 0
			rq.ci++
			rq.prefetch()
		}
		if rq.place(rq.backlog.Peek(0)) {
			rq.backlog.Pop()
		}
	}
}

// place writes one packet into the current buffer, advancing stride
// accounting and emitting the receive CQE. It reports false when the
// packet did not fit and the buffer was abandoned instead.
func (rq *RQ) place(p *pendingRx) bool {
	n := len(p.data)
	stride := rq.StrideSize
	if stride == 0 {
		stride = int(rq.cur.Len)
	}
	need := (n + stride - 1) / stride * stride
	if n > int(rq.cur.Len) {
		rq.n.dropFrame(DropRxTooBig, p.buf)
		return true
	}
	if rq.curOffset+need > int(rq.cur.Len) {
		// Doesn't fit in the remaining strides: MPRQ fragmentation —
		// waste the tail and move to the next buffer.
		rq.WastedBytes += int64(int(rq.cur.Len) - rq.curOffset)
		rq.haveCur = false
		return false
	}
	addr := rq.cur.Addr + uint64(rq.curOffset)
	strideIdx := rq.curOffset / stride
	bufIdx := rq.curIdx
	rq.curOffset += need
	last := rq.curOffset+stride > int(rq.cur.Len)
	if last {
		rq.haveCur = false // buffer exhausted; descriptor consumed
	}
	cqe := p.cqe
	cqe.Opcode = orDefault(cqe.Opcode, CQERecv)
	cqe.Queue = rq.ID
	cqe.ByteCount = uint32(n)
	cqe.Index = uint16(bufIdx%uint32(rq.Size))<<8 | uint16(strideIdx&0xff)
	cqe.Addr = addr
	rq.n.Stats.RxPackets++
	rq.n.Stats.RxBytes += int64(n)
	rq.tPlaced.Inc()
	rq.tPlacedBytes.Add(int64(n))
	r := rq.n.rxDones.Get()
	r.rq, r.ep, r.cqe = rq, rq.epoch, cqe
	rq.n.port.WriteOwned(addr, p.data, p.buf, r.done)
	return true
}

func orDefault(v, d uint8) uint8 {
	if v == 0 {
		return d
	}
	return v
}

// Posted reports how many buffers are currently posted and unconsumed.
func (rq *RQ) Posted() int { return int(rq.pi - rq.ci) }

// --- Completion queue ----------------------------------------------------

// CQ is a completion queue: the NIC DMA-writes 64 B CQEs into its ring and
// notifies the consumer.
type CQ struct {
	n     *NIC
	ID    uint32
	Ring  uint64
	Size  int
	pi    uint32
	onCQE func(CQE)
	vf    *VF // owning virtual function; nil for PF queues

	tCQEs *telemetry.Counter // nil-safe; see instrument
}

// Push DMA-writes one completion into the ring.
func (cq *CQ) Push(c CQE) {
	if f := cq.n.flt; f != nil && f.CQEError != nil && c.Opcode != CQEError && f.CQEError(cq) {
		// Fault plane: report this completion as failed. The work
		// actually executed; consumers see a per-WQE error and must
		// still release the slot (SynInjected is not queue-fatal).
		c.Opcode = CQEError
		c.Syndrome = SynInjected
	}
	cq.tCQEs.Inc()
	c.Counter = cq.pi
	slot := uint64(cq.pi) % uint64(cq.Size)
	cq.pi++
	addr := cq.Ring + slot*CQESize
	b := cq.n.eng.Bufs().Get(CQESize)
	c.MarshalInto(b)
	w := cq.n.cqws.Get()
	w.cq, w.c = cq, c
	cq.n.port.WriteOwned(addr, b, b, w.done)
}

// ConnectX6DxParams returns the timing profile of the newer-generation
// adapter the paper reports porting FlexDriver to with minimal changes
// (§6: "we have successfully tested our ConnectX-5-based design against
// ConnectX-6 Dx"): faster engines and a shorter pipeline, same
// driver-facing contract.
func ConnectX6DxParams() Params {
	p := DefaultParams()
	p.TxPerWQE = 5 * sim.Nanosecond // ~200 Mpps engine
	p.RxPerPkt = 5 * sim.Nanosecond
	p.PipelineDelay = 120 * sim.Nanosecond
	p.SQWindow = 64
	return p
}
