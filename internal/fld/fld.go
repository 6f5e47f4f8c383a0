package fld

import (
	"encoding/binary"
	"fmt"

	"flexdriver/internal/cuckoo"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// Metadata accompanies packets across the FLD-accelerator streaming
// interface (paper §5.5): queue identity, the context/tenant tag or local
// QPN, and receive-side offload results.
type Metadata struct {
	// Queue is the FLD transmit queue (tx) or the NIC receive queue id
	// (rx).
	Queue int
	// Tag is the FLD-E context ID stamped by the NIC's match-action
	// rules, or the local QPN for FLD-R traffic. The compressed transmit
	// descriptor carries 24 bits of it, so Send refuses a tag of 2^24 or
	// more.
	Tag uint32
	// Last marks the final packet of an RDMA message (always true for
	// Ethernet packets).
	Last bool
	// ChecksumOK carries the NIC's checksum-validation offload result.
	ChecksumOK bool
}

// Handler consumes packets FLD receives from the NIC. Implementations are
// accelerator function units (AFUs). Receive must not block: the AXI-Stream
// contract forbids accelerator backpressure toward FLD (§5.5) — an AFU
// that cannot keep up must drop or flow-control at the application layer.
// data is a pooled buffer lent for the call: an AFU that keeps the bytes
// past Receive (across a delay, in a queue) copies them.
type Handler interface {
	Receive(data []byte, md Metadata)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(data []byte, md Metadata)

// Receive implements Handler.
func (f HandlerFunc) Receive(data []byte, md Metadata) { f(data, md) }

// Stats counts FLD data-plane activity.
type Stats struct {
	TxPackets, TxBytes int64
	RxPackets, RxBytes int64
	CreditStalls       int64
	Errors             int64
	// AccelStalls counts packets dropped because the accelerator kernel
	// stalled (fault-injected); buffers are still recycled, so a stall
	// never leaks credits or wedges the receive path.
	AccelStalls int64
	// Recoveries counts driver-initiated recoveries the FLD completed
	// (queue replays and receive re-arms).
	Recoveries int64
	// Crashes counts crash windows that actually took the function down;
	// CrashDrops counts in-flight descriptors and packets that died with
	// it; CrashLostCQEs counts completions the NIC posted into the void.
	Crashes       int64
	CrashDrops    int64
	CrashLostCQEs int64
}

// ErrNoCredits is returned by Send when the queue lacks descriptor or
// buffer credits; the accelerator should retry after OnCredits fires.
var ErrNoCredits = fmt.Errorf("fld: insufficient tx credits")

// ErrDown is returned by Send while the FLD is crashed (see Crash in
// failure.go).
var ErrDown = fmt.Errorf("fld: device down")

// FLD is the FlexDriver hardware module instance.
type FLD struct {
	cfg Config
	eng *sim.Engine

	fab    *pcie.Fabric
	port   *pcie.Port
	nicBAR uint64

	// BAR layout (offsets within our BAR).
	txDescBase uint64
	txDescSize uint64
	txDataBase uint64
	txDataSize uint64
	rxBufBase  uint64
	rxCQBase   uint64
	txCQBase   uint64
	barSize    uint64

	windowPages int // virtual data pages per queue window

	// Transmit state.
	descPool []txDesc      // grown a slot at a time as slots are first used
	descFree []uint16      // released slots, reused last-in first-out
	descXlt  *cuckoo.Table // (queue, ring index) -> pool slot
	dataXlt  *cuckoo.Table // global vpage -> physical page
	txPool   *pagePool
	queues   []*txQueue

	// Receive state.
	rxMem   hostmem.Store
	rxRQN   uint32
	rx      nic.RecvRing
	rxArmed bool // Start has posted the ring

	txPipe  *sim.Resource             // II pacing for the transmit pipeline
	rxPipe  *sim.Resource             // II pacing for the receive pipeline
	ops     sim.Pool[pipeOp, *pipeOp] // pipeline transit records
	handler Handler

	onCredits func()
	onError   func(queue int, syndrome uint8)

	Stats Stats

	// downN counts active crash windows (see Crash/Restart in
	// failure.go); the function responds only at zero.
	downN int

	pcieName string // device name override for multi-core FPGAs

	tlm *fldTelemetry // &uninstrumented until SetTelemetry
	flt *FaultHooks   // nil unless SetFaults was called
}

// FaultHooks lets a fault-injection plane perturb the FLD. Hooks are
// optional (nil means "never").
type FaultHooks struct {
	// AccelStall reports whether the accelerator kernel is stalled for
	// the arriving packet: the FLD counts and drops it (the wire and
	// NIC already delivered it), keeping the data plane moving.
	AccelStall func(f *FLD) bool
}

type txQueue struct {
	nicSQN   uint32
	ring     nic.SendRing[txPending]
	cursor   int // next virtual page in this queue's window
	sinceSig int
}

// txPending is what a posted descriptor holds until it retires.
type txPending struct {
	slot   uint16 // descriptor pool slot
	pages  uint16 // page count; dataXlt maps them from vstart on
	vstart int    // first virtual page (in-queue)
}

// New builds an FLD instance; call AttachPCIe and BindNIC before use.
func New(eng *sim.Engine, cfg Config) *FLD {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &FLD{cfg: cfg, eng: eng, tlm: &uninstrumented}
	f.rx.Strides = cfg.RxWQEBytes / cfg.RxStrideBytes

	// Virtual windows: give each queue double the whole buffer pool so
	// in-flight virtual pages never collide before their translation
	// entries are recycled.
	f.windowPages = 2 * cfg.TxBufBytes / cfg.TxPageBytes
	ringBytes := uint64(cfg.TxRingEntries) * nic.SendWQESize

	f.txDescBase = 0
	f.txDescSize = uint64(cfg.NumTxQueues) * ringBytes
	f.txDataBase = f.txDescBase + f.txDescSize
	f.txDataSize = uint64(cfg.NumTxQueues) * uint64(f.windowPages*cfg.TxPageBytes)
	f.rxBufBase = f.txDataBase + f.txDataSize
	f.txCQBase = f.rxBufBase + uint64(cfg.RxBufBytes)
	f.rxCQBase = f.txCQBase + uint64(cfg.CQEntries)*nic.CQESize
	f.barSize = f.rxCQBase + uint64(cfg.CQEntries)*nic.CQESize

	f.descXlt = cuckoo.New(cfg.TxDescPool)
	f.dataXlt = cuckoo.New(cfg.TxBufBytes / cfg.TxPageBytes)
	f.txPool = newPagePool(cfg.TxBufBytes, cfg.TxPageBytes)
	for i := 0; i < cfg.NumTxQueues; i++ {
		f.queues = append(f.queues, &txQueue{ring: nic.SendRing[txPending]{Size: uint32(cfg.TxRingEntries)}})
	}
	f.rxMem = hostmem.NewStore(uint64(cfg.RxBufBytes))
	f.txPipe = sim.NewResource(eng)
	f.rxPipe = sim.NewResource(eng)
	return f
}

// Config returns the instance configuration.
func (f *FLD) Config() Config { return f.cfg }

// Engine returns the engine the FLD schedules on.
func (f *FLD) Engine() *sim.Engine { return f.eng }

// AttachPCIe connects FLD to the fabric.
func (f *FLD) AttachPCIe(fab *pcie.Fabric, cfg pcie.LinkConfig) *pcie.Port {
	f.fab = fab
	f.port = fab.Attach(f, cfg)
	return f.port
}

// BindNIC records the NIC's BAR base for doorbell writes. Both devices
// must already be attached to the same fabric.
func (f *FLD) BindNIC(n *nic.NIC) {
	f.nicBAR = f.fab.PortOf(n).Base()
}

// SetHandler installs the accelerator's receive handler.
func (f *FLD) SetHandler(h Handler) { f.handler = h }

// SetOnCredits installs a callback fired whenever transmit credits are
// released (the §5.5 credit interface's notification edge).
func (f *FLD) SetOnCredits(fn func()) { f.onCredits = fn }

// SetOnError installs the data-plane error callback reported to the
// control plane through the kernel driver (paper §5.3 error handling).
func (f *FLD) SetOnError(fn func(queue int, syndrome uint8)) { f.onError = fn }

// SetFaults installs (or, with nil, removes) fault-injection hooks.
func (f *FLD) SetFaults(h *FaultHooks) { f.flt = h }

// --- Addresses the control plane wires into the NIC ---------------------

// TxRingAddr returns the PCIe address the NIC should use as queue q's
// descriptor ring: a virtual window FLD synthesizes descriptors into.
func (f *FLD) TxRingAddr(q int) uint64 {
	return f.port.Base() + f.txDescBase + uint64(q)*uint64(f.cfg.TxRingEntries)*nic.SendWQESize
}

// TxCQAddr / RxCQAddr return the PCIe addresses for the NIC's completion
// rings.
func (f *FLD) TxCQAddr() uint64 { return f.port.Base() + f.txCQBase }
func (f *FLD) RxCQAddr() uint64 { return f.port.Base() + f.rxCQBase }

// RxBufAddr returns the PCIe address of the i-th receive buffer; the
// control plane posts these once into the host-memory receive ring.
func (f *FLD) RxBufAddr(i int) uint64 {
	return f.port.Base() + f.rxBufBase + uint64(i*f.cfg.RxWQEBytes)
}

// RxBufCount returns how many MPRQ buffers the receive SRAM holds.
func (f *FLD) RxBufCount() int { return f.cfg.RxBufBytes / f.cfg.RxWQEBytes }

// ConfigureTxQueue binds FLD queue q to a NIC send queue number.
func (f *FLD) ConfigureTxQueue(q int, nicSQN uint32) {
	f.queues[q].nicSQN = nicSQN
}

// ConfigureRx binds the receive path to a NIC receive queue whose ring
// (in host memory) holds rxEntries pre-written descriptors; FLD recycles
// them in order by advancing the producer index.
func (f *FLD) ConfigureRx(nicRQN uint32, rxEntries int) {
	f.rxRQN, f.rx.Size = nicRQN, rxEntries
}

// Start posts the initial receive producer index, arming the NIC with
// every buffer.
func (f *FLD) Start() {
	f.rx.PI = uint32(f.rx.Size)
	f.rxArmed = true
	f.writeRQDoorbell(f.rx.PI)
}

func (f *FLD) writeRQDoorbell(pi uint32) {
	f.tlm.rqDoorbells.Inc()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], pi)
	f.port.Write(f.nicBAR+nic.RQDoorbellOffset(f.rxRQN), b[:], nil)
}

// --- Transmit path -------------------------------------------------------

// Credits reports queue q's available transmit resources: descriptor
// slots and buffer bytes (paper §5.5: "per-queue backpressure to the
// accelerator in the form of a credit interface").
func (f *FLD) Credits(q int) (descSlots, bufBytes int) {
	return min(f.queues[q].ring.Space(), f.descAvail()), f.txPool.freePages() * f.cfg.TxPageBytes
}

// descAvail is the descriptor-pool slots not in flight.
func (f *FLD) descAvail() int { return f.cfg.TxDescPool - len(f.descPool) + len(f.descFree) }

// Send transmits one packet (FLD-E: a complete Ethernet frame; FLD-R: a
// message for the bound QP) on queue q. The data is copied into FLD's
// buffer pool; ErrNoCredits is returned when resources are exhausted.
func (f *FLD) Send(q int, data []byte, md Metadata) error {
	if f.downN > 0 {
		return ErrDown
	}
	if q < 0 || q >= len(f.queues) {
		return fmt.Errorf("fld: no such queue %d", q)
	}
	if md.Tag >= 1<<24 {
		return fmt.Errorf("fld: flow tag %#x does not fit the descriptor's 24 bits", md.Tag)
	}
	tq := f.queues[q]
	slots, bufBytes := f.Credits(q)
	if slots < 1 || bufBytes < len(data) {
		f.Stats.CreditStalls++
		return ErrNoCredits
	}

	pages := max(f.txPool.pages(len(data)), 1)
	if pages > f.txPool.freePages() {
		f.Stats.CreditStalls++
		return ErrNoCredits
	}
	slot := uint16(len(f.descPool))
	if n := len(f.descFree); n > 0 {
		slot, f.descFree = f.descFree[n-1], f.descFree[:n-1]
	} else {
		f.descPool = append(f.descPool, txDesc{})
	}

	// Copy the data into pages mapped at consecutive virtual addresses in
	// q's window; dataXlt is the only record of which pages it holds.
	vstart := tq.cursor
	for i := range pages {
		vp := (vstart + i) % f.windowPages
		key := uint64(q)<<32 | uint64(vp)
		lo := i * f.cfg.TxPageBytes
		if !f.dataXlt.Insert(key, uint32(f.txPool.alloc(data[lo:min(lo+f.cfg.TxPageBytes, len(data))]))) {
			panic("fld: data translation table overflow (sizing bug)")
		}
	}
	tq.cursor = (vstart + pages) % f.windowPages

	idx := tq.ring.PI
	tq.sinceSig++
	// Also force a completion when resources run low: recycling must never
	// deadlock behind a run of unsignaled descriptors (with a small pool
	// every in-flight descriptor could otherwise be unsignaled, and no
	// completion would ever arrive to free them).
	signal := tq.sinceSig >= f.cfg.SignalEvery || f.descAvail() < f.cfg.SignalEvery ||
		f.txPool.freePages() < 2*pages+f.cfg.SignalEvery
	if signal {
		tq.sinceSig = 0
	}
	f.descPool[slot] = txDesc{Page: uint16(vstart), Len: uint16(len(data)), Signal: signal, Valid: true, FlowTag: md.Tag}
	ringKey := uint64(q)<<32 | uint64(idx%uint32(f.cfg.TxRingEntries))
	if !f.descXlt.Insert(ringKey, uint32(slot)) {
		panic("fld: descriptor translation table overflow (sizing bug)")
	}
	tq.ring.Post(txPending{slot: slot, pages: uint16(pages), vstart: vstart})

	f.Stats.TxPackets++
	f.Stats.TxBytes += int64(len(data))
	f.noteOccupancy()

	// Pace the hardware pipeline, cross it, then notify the NIC: one
	// event, at the end of the pacing slot plus the pipeline latency.
	x := f.ops.Get()
	*x = pipeOp{f: f, q: q, idx: idx}
	end := f.txPipe.Acquire(f.cfg.PacketInterval())
	f.eng.AtArg(end+f.cfg.PipelineDelay, txNotify, x)
	return nil
}

// pipeOp carries one packet across a streaming pipeline (II pacing, then
// the fixed pipeline latency): a transmit's queue and ring index on the
// way to its doorbell, or a received packet on the way to the AFU.
// Records are recycled through a per-FLD pool.
type pipeOp struct {
	sim.Link[pipeOp]
	f    *FLD
	q    int    // tx: FLD queue
	idx  uint32 // tx: ring index of the descriptor
	data []byte // rx: packet copied out of receive SRAM, pooled
	md   Metadata
}

// txNotify: the packet crossed the transmit pipeline; ring the NIC's
// doorbell (or push the whole WQE).
func txNotify(a any) {
	x := a.(*pipeOp)
	f, q, idx := x.f, x.q, x.idx
	f.ops.Put(x)
	tq := f.queues[q]
	if f.cfg.WQEByMMIO {
		wqe := f.eng.Bufs().Get(nic.SendWQESize)
		f.generateWQE(wqe, q, idx)
		f.tlm.wqeMMIO.Inc()
		f.port.WriteOwned(f.nicBAR+nic.SQDoorbellOffset(tq.nicSQN), wqe, wqe, nil)
		return
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], tq.ring.PI)
	f.tlm.sqDoorbells.Inc()
	f.port.Write(f.nicBAR+nic.SQDoorbellOffset(tq.nicSQN), b[:], nil)
}

// generateWQE synthesizes the 64-byte NIC descriptor for (queue, index)
// from the compressed pool into b — the on-the-fly structure generation
// at the heart of §5.2.
func (f *FLD) generateWQE(b []byte, q int, idx uint32) {
	ringKey := uint64(q)<<32 | uint64(idx%uint32(f.cfg.TxRingEntries))
	slotv, ok := f.descXlt.Lookup(ringKey)
	if !ok {
		f.tlm.descMisses.Inc()
		// The NIC read a descriptor FLD never posted: emit an invalid
		// WQE; the NIC will complete it with an error that flows back
		// through the control plane's error channel.
		clear(b[:nic.SendWQESize])
		b[0] = 0xff // invalid opcode
		return
	}
	f.tlm.descHits.Inc()
	d := f.descPool[slotv]
	vaddr := f.port.Base() + f.txDataBase +
		uint64(q)*uint64(f.windowPages*f.cfg.TxPageBytes) +
		uint64(d.Page)*uint64(f.cfg.TxPageBytes)
	nic.SendWQE{
		Opcode:  nic.OpSend,
		Index:   uint16(idx),
		QPN:     f.queues[q].nicSQN,
		Signal:  d.Signal,
		FlowTag: d.FlowTag,
		Addr:    vaddr,
		Len:     uint32(d.Len),
	}.MarshalInto(b)
}

// --- pcie.Device ----------------------------------------------------------

// PCIeName implements pcie.Device. Multi-core FPGAs rename the extra
// cores (SetPCIeName) so each core's PCIe link keeps its own telemetry.
func (f *FLD) PCIeName() string {
	if f.pcieName == "" {
		return "fld"
	}
	return f.pcieName
}

// SetPCIeName overrides the device name; call before AttachPCIe so the
// port's telemetry scope picks it up.
func (f *FLD) SetPCIeName(name string) { f.pcieName = name }

// BARSize implements pcie.Device.
func (f *FLD) BARSize() uint64 { return f.barSize }

// MMIORead implements pcie.Device: the NIC reading descriptors or packet
// data out of FLD's virtual windows, generated straight into the
// completion. A crashed function does not respond: no completion, so the
// NIC's fetch times out and the queue enters Error organically.
func (f *FLD) MMIORead(offset uint64, dst []byte) bool {
	if f.downN > 0 {
		return false
	}
	switch {
	case offset >= f.txDescBase && offset < f.txDescBase+f.txDescSize:
		f.readDescRegion(offset-f.txDescBase, dst)
	case offset >= f.txDataBase && offset < f.txDataBase+f.txDataSize:
		f.readDataRegion(offset-f.txDataBase, dst)
	default:
		clear(dst)
	}
	return true
}

// readDescRegion serves NIC descriptor-ring reads by generating WQEs on
// the fly (used when WQEByMMIO is off), each straight into its place in
// out.
func (f *FLD) readDescRegion(off uint64, out []byte) {
	ringBytes := uint64(f.cfg.TxRingEntries) * nic.SendWQESize
	for n, size := 0, len(out); n < size; {
		q := int(off / ringBytes)
		idx := uint32((off % ringBytes) / nic.SendWQESize)
		within := int(off % nic.SendWQESize)
		take := min(nic.SendWQESize-within, size-n)
		if take == nic.SendWQESize {
			f.generateWQE(out[n:], q, idx)
		} else {
			// A read that starts or ends inside a descriptor gets the
			// part it asked for.
			var wqe [nic.SendWQESize]byte
			f.generateWQE(wqe[:], q, idx)
			copy(out[n:], wqe[within:within+take])
		}
		n += take
		off += uint64(take)
	}
}

// readDataRegion translates virtual data addresses through the data
// translation table and copies the bytes from the shared buffer pool into
// out, page by page; unmapped pages read as zero.
func (f *FLD) readDataRegion(off uint64, out []byte) {
	window := uint64(f.windowPages * f.cfg.TxPageBytes)
	for n, size := 0, len(out); n < size; {
		q := int(off / window)
		within := off % window
		vp := int(within) / f.cfg.TxPageBytes
		pageOff := int(within) % f.cfg.TxPageBytes
		take := min(f.cfg.TxPageBytes-pageOff, size-n)
		key := uint64(q)<<32 | uint64(vp)
		phys, ok := f.dataXlt.Lookup(key)
		if ok {
			f.tlm.dataHits.Inc()
			f.txPool.read(out[n:n+take], uint16(phys), pageOff)
		} else {
			f.tlm.dataMisses.Inc()
			clear(out[n : n+take])
		}
		n += take
		off += uint64(take)
	}
}

// MMIOWrite implements pcie.Device: the NIC writing received packets and
// completions. Writes to a crashed function are posted into the void;
// lost completions are counted so invariant checkers can budget the
// CQEs nobody consumed.
func (f *FLD) MMIOWrite(offset uint64, data []byte) {
	if f.downN > 0 {
		if offset >= f.txCQBase {
			f.Stats.CrashLostCQEs++
		}
		return
	}
	switch {
	case offset >= f.rxBufBase && offset < f.rxBufBase+uint64(f.cfg.RxBufBytes):
		f.rxMem.Write(offset-f.rxBufBase, data)
	case offset >= f.txCQBase && offset < f.txCQBase+uint64(f.cfg.CQEntries)*nic.CQESize:
		if c, err := nic.ParseCQE(data); err == nil {
			f.handleTxCQE(c)
		}
	case offset >= f.rxCQBase && offset < f.rxCQBase+uint64(f.cfg.CQEntries)*nic.CQESize:
		if c, err := nic.ParseCQE(data); err == nil {
			f.handleRxCQE(c)
		}
	}
}

// handleTxCQE releases the resources of every descriptor up to and
// including the completed index, and of none for an index the FLD has
// not posted (nic.SendRing.Complete).
func (f *FLD) handleTxCQE(c nic.CQE) {
	rec := compressCQE(c) // stored compressed on-die (15 B)
	f.tlm.txCQEs.Inc()
	if rec.Opcode == nic.CQEError {
		f.Stats.Errors++
		if f.onError != nil {
			f.onError(f.queueBySQN(rec.Queue), c.Syndrome)
		}
		if c.Syndrome == nic.SynQueueErr {
			// Queue-fatal: the SQ is in the Error state and nothing
			// was completed — release no resources. The runtime resets
			// the SQ and replays from ReplayWindow; the FLD's pending
			// descriptors (and their pool pages) stay live for that.
			return
		}
		// Per-WQE error (bad WQE, gather failure, injected, retry
		// exceeded): the slot was consumed, so fall through and
		// release up to and including the failed index.
	}
	qi := f.queueBySQN(rec.Queue)
	if qi < 0 {
		return
	}
	n := f.queues[qi].ring.Complete(rec.Index)
	if n == 0 {
		return
	}
	for range n {
		f.releaseTx(qi)
	}
	f.noteOccupancy()
	if f.onCredits != nil {
		f.onCredits()
	}
}

// releaseTx retires queue qi's oldest posted descriptor and frees what it
// held: payload pages, their data translations, the ring translation and
// the pool slot.
func (f *FLD) releaseTx(qi int) {
	ring := &f.queues[qi].ring
	idx := ring.CI()
	p := ring.Pop()
	for i := range int(p.pages) {
		key := uint64(qi)<<32 | uint64((p.vstart+i)%f.windowPages)
		phys, _ := f.dataXlt.Lookup(key)
		f.txPool.release(uint16(phys))
		f.dataXlt.Delete(key)
	}
	f.descXlt.Delete(uint64(qi)<<32 | uint64(idx%uint32(f.cfg.TxRingEntries)))
	f.descFree = append(f.descFree, p.slot)
}

// ReplayWindow returns the NIC ring consumer/producer indices from
// which to replay queue q after a queue-fatal error: ci is the oldest
// descriptor the FLD has not seen complete, pi the next free slot. The
// FLD still serves every descriptor and payload page in that window
// from its pools (SynQueueErr released nothing), so SQ.ResetTo(ci, pi)
// makes the NIC re-fetch and re-execute exactly the outstanding work.
func (f *FLD) ReplayWindow(q int) (ci, pi uint32) {
	f.Stats.Recoveries++
	ring := &f.queues[q].ring
	return ring.CI(), ring.PI
}

// ReArmRx restores receive delivery after a receive-queue error and
// reset: the FLD abandons its in-progress buffer tracking (reposting a
// buffer the NIC left mid-fill) and re-doorbells the producer index so
// the recovered RQ resumes filling buffers.
func (f *FLD) ReArmRx() {
	f.Stats.Recoveries++
	if f.rx.Abandon() {
		f.rx.PI++
	}
	f.writeRQDoorbell(f.rx.PI)
}

func (f *FLD) queueBySQN(sqn uint32) int {
	for i, q := range f.queues {
		if q.nicSQN == sqn {
			return i
		}
	}
	return -1
}

// handleRxCQE streams the received packet to the accelerator and recycles
// exhausted receive buffers in order.
func (f *FLD) handleRxCQE(c nic.CQE) {
	if c.Opcode == nic.CQEError {
		// Receive-queue error: no packet arrived. Surface it to the
		// runtime (queue -1 marks the receive path) which resets the
		// RQ and calls ReArmRx; nothing to release here.
		f.Stats.Errors++
		if f.onError != nil {
			f.onError(-1, c.Syndrome)
		}
		return
	}
	rec := compressCQE(c)
	f.Stats.RxPackets++
	f.Stats.RxBytes += int64(rec.ByteCount)
	f.tlm.rxCQEs.Inc()

	// In-order buffer recycling (§5.2 "Receive Ring in Host Memory"):
	// a buffer is done either when its strides are fully consumed or
	// when the NIC moves on to the next buffer (tail-fragmentation
	// skip); either way FLD reposts it by bumping the producer index —
	// the host-memory descriptors themselves stay untouched.
	strides := (int(rec.ByteCount) + f.cfg.RxStrideBytes - 1) / f.cfg.RxStrideBytes
	buf := int32(rec.Index >> 8)
	recycled, first := f.rx.Fill(buf, strides)
	for n := recycled; n > 0; n-- {
		f.writeRQDoorbell(f.rx.PI - uint32(n-1))
	}

	if h := f.flt; h != nil && h.AccelStall != nil && h.AccelStall(f) {
		// Accelerator stall: the buffer was already recycled above, so
		// dropping here frees every resource — count and move on.
		f.Stats.AccelStalls++
		return
	}

	// Copy the packet out of receive SRAM into a pooled buffer and stream
	// it to the AFU through the paced pipeline.
	off := c.Addr - (f.port.Base() + f.rxBufBase)
	data := f.eng.Bufs().Get(int(rec.ByteCount))
	clear(data) // what runs past the SRAM reads as zero
	f.rxMem.Read(data, off)
	// The packet is out, so the buffers Fill recycled (first, then buf) are dead.
	for b := first; recycled > 0; recycled, b = recycled-1, buf {
		f.rxMem.Discard(uint64(b)*uint64(f.cfg.RxWQEBytes), uint64(f.cfg.RxWQEBytes))
	}
	md := Metadata{
		Queue:      int(rec.Queue),
		Tag:        rec.FlowTag,
		Last:       rec.Last,
		ChecksumOK: rec.ChecksumOK,
	}
	x := f.ops.Get()
	*x = pipeOp{f: f, data: data, md: md}
	paced := f.rxPipe.Acquire(f.cfg.PacketInterval())
	f.eng.AtArg(paced+f.cfg.PipelineDelay, rxStream, x)
}

// rxStream: the packet crossed the receive pipeline; lend it to the AFU.
func rxStream(a any) {
	x := a.(*pipeOp)
	f, data, md := x.f, x.data, x.md
	x.data = nil
	f.ops.Put(x)
	if f.downN > 0 {
		// The function crashed while the packet was in the streaming
		// pipeline: it dies with the SRAM.
		f.Stats.CrashDrops++
	} else if f.handler != nil {
		f.handler.Receive(data, md)
	}
	f.eng.Bufs().Put(data)
}
