// Package swdriver implements the host-CPU software data-plane driver the
// paper compares FlexDriver against: a DPDK/mlx5-style poll-mode driver
// with full-size descriptor rings in host memory, doorbell batching, and a
// single-core CPU cost model with OS-jitter injection (the source of the
// CPU baseline's 99.9th-percentile latency tail in Table 6).
package swdriver

import (
	"encoding/binary"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Params models the CPU driver's per-operation costs.
type Params struct {
	// RxCost / TxCost are the CPU cycles (as time) spent per received /
	// transmitted packet (descriptor handling, buffer management).
	RxCost sim.Duration
	TxCost sim.Duration
	// DoorbellBatch issues one MMIO doorbell per this many posted
	// descriptors (DPDK-style batching).
	DoorbellBatch int
	// SignalEvery requests a transmit completion once per this many
	// descriptors (selective completion signalling).
	SignalEvery int
	// JitterProb is the per-operation probability of an OS
	// interruption, adding a bounded-Pareto delay — the cause of the
	// CPU's 99.9th-percentile latency tail (Table 6).
	JitterProb           float64
	JitterMin, JitterMax sim.Duration
	JitterAlpha          float64
	Seed                 int64
}

// DefaultParams returns costs calibrated to a testpmd-class poll-mode
// driver on the paper's Haswell testbed (~10 Mpps/core forwarding).
func DefaultParams() Params {
	return Params{
		RxCost:        55 * sim.Nanosecond,
		TxCost:        45 * sim.Nanosecond,
		DoorbellBatch: 4,
		SignalEvery:   4,
		JitterProb:    4e-4,
		JitterMin:     4 * sim.Microsecond,
		JitterMax:     60 * sim.Microsecond,
		JitterAlpha:   2.2,
		Seed:          1,
	}
}

// Driver is the per-host software driver instance: it owns a CPU core
// model and builds queues in host memory.
type Driver struct {
	Prm  Params
	eng  *sim.Engine
	fab  *pcie.Fabric
	mem  *hostmem.Memory
	host *pcie.Port
	nic  *nic.NIC
	bar  uint64

	cpu *sim.Resource
	rng *sim.Rand

	// Pools of per-packet work records (single-threaded, like the
	// engine). A record abandoned mid-flight by a queue reset is
	// garbage-collected; correctness never depends on recycling.
	txPosts sim.Pool[txPost, *txPost]
	rxWorks sim.Pool[rxWork, *rxWork]

	// Every port and endpoint the driver built, in creation order — the
	// crash–restart reattach and the supervision ladder walk these.
	queues []queueSet

	// downN counts active crash windows (see Crash/Restart in
	// failure.go); the driver process is running only at zero.
	downN int

	// Stats.
	RxPackets, TxPackets int64
	// CQEErrors counts error completions observed; TxErrors counts
	// transmit descriptors lost to them; RxErrors counts received
	// messages discarded by the driver's integrity check (a reassembled
	// RDMA message whose length disagrees with the transport's — a
	// fragment's payload DMA was lost); Recoveries counts
	// driver-initiated queue resets.
	CQEErrors, TxErrors, RxErrors, Recoveries int64
	// Crashes counts crash windows that actually took the process down;
	// DownTxDrops counts application sends while it was down; DownCQEs
	// counts completions nobody was alive to observe.
	Crashes, DownTxDrops, DownCQEs int64

	tlm *drvTelemetry // nil unless SetTelemetry was called
}

// New builds a driver for the given host memory and NIC (both already
// attached to the fabric).
func New(eng *sim.Engine, fab *pcie.Fabric, mem *hostmem.Memory, n *nic.NIC, prm Params) *Driver {
	prm.DoorbellBatch = max(prm.DoorbellBatch, 1)
	prm.SignalEvery = max(prm.SignalEvery, 1)
	return &Driver{
		Prm:  prm,
		eng:  eng,
		fab:  fab,
		mem:  mem,
		host: fab.PortOf(mem),
		nic:  n,
		bar:  fab.PortOf(n).Base(),
		cpu:  sim.NewResource(eng),
		rng:  sim.NewRand(prm.Seed),
	}
}

// queueSet is what crash–restart, the supervision ladder and a send ring
// need of an EthPort or an RDMAEndpoint.
type queueSet interface {
	Poll() bool
	rings() (*sendRing, *recvRing)
	crash()
	reattach()
	post(data []byte)
}

// doorbell rings a producer-index doorbell register.
func (d *Driver) doorbell(offset uint64, pi uint32) {
	b := d.eng.Bufs().Get(4)
	binary.BigEndian.PutUint32(b, pi)
	d.host.WriteOwned(d.bar+offset, b, b, nil)
}

// cpuWork charges one CPU operation, with occasional OS jitter, then runs
// fn(arg): the per-packet paths keep their state in a pooled record
// instead of a closure.
func (d *Driver) cpuWork(cost sim.Duration, fn func(any), arg any) {
	d.eng.AtArg(d.cpu.Acquire(d.cpuCost(cost)), fn, arg)
}

func (d *Driver) cpuCost(cost sim.Duration) sim.Duration {
	jittered := d.Prm.JitterProb > 0 && d.rng.Float64() < d.Prm.JitterProb
	if jittered {
		cost += d.rng.Pareto(d.Prm.JitterMin, d.Prm.JitterMax, d.Prm.JitterAlpha)
	}
	if t := d.tlm; t != nil {
		t.cpuOps.Inc()
		if jittered {
			t.jitters.Inc()
		}
	}
	return cost
}

// rxWork carries one receive completion through the RX CPU cost to frame
// delivery (none for an error completion) and buffer recycling (or,
// with e set, to message reassembly).
type rxWork struct {
	sim.Link[rxWork]
	p *EthPort
	e *RDMAEndpoint
	c nic.CQE
}

func rxWorkRun(a any) {
	x := a.(*rxWork)
	p, c := x.p, x.c
	*x = rxWork{}
	p.drv.rxWorks.Put(x)
	if c.Opcode != nic.CQEError {
		p.drv.RxPackets++
		p.tRxPackets.Inc()
		if p.OnReceive != nil {
			frame := p.drv.eng.Bufs().Get(int(c.ByteCount))
			p.drv.mem.ReadInto(c.Addr-p.drv.host.Base(), frame)
			p.OnReceive(frame, RxMeta{FlowTag: c.FlowTag, RSSHash: c.RSSHash, ChecksumOK: c.ChecksumOK})
			p.drv.eng.Bufs().Put(frame)
		}
		// Copied out, the buffer is dead until the NIC refills it (a
		// port's buffers are one size both ways).
		p.drv.mem.Discard(c.Addr-p.drv.host.Base(), p.tx.bufSz)
	}
	// Recycle the buffer (in-order repost, batched doorbells).
	p.rx.PI++
	p.rqSinceDB++
	if p.rqSinceDB >= p.drv.Prm.DoorbellBatch || p.rx.rq.Posted() < p.rx.Size/2 {
		p.rqSinceDB = 0
		p.rx.doorbell(p.rx.PI)
	}
}

// RxMeta carries receive metadata up to the application.
type RxMeta struct {
	FlowTag    uint32
	RSSHash    uint32
	ChecksumOK bool
}

// EthPort is a raw-Ethernet queue set (one TX ring, one RX ring with
// buffers, matching CQs) — the software analogue of an FLD-E attachment.
type EthPort struct {
	drv   *Driver
	vport *nic.VPort
	tx    sendRing
	rx    recvRing

	sincedb   int // posts since the last SQ doorbell
	dbTimer   *sim.Timer
	rqSinceDB int // reposts since the last RQ doorbell

	// OnReceive delivers received frames to the application. frame is a
	// pooled buffer lent for the call: a handler that keeps the bytes
	// copies them.
	OnReceive func(frame []byte, md RxMeta)
	// OnSendComplete fires per transmit completion batch.
	OnSendComplete func(n int)

	// Telemetry handles (nil-safe; see instrument).
	tTxPosts, tTxInline      *telemetry.Counter
	tSQDoorbells, tRxPackets *telemetry.Counter
	tDBBatch, tCplBatch      *telemetry.Histogram
}

// DefaultBufBytes is an EthPort's per-buffer size when its config names
// none: the largest frame such a port sends or receives.
const DefaultBufBytes = 2048

// EthPortConfig sizes an EthPort.
type EthPortConfig struct {
	TxEntries int // power of two
	RxEntries int // power of two
	BufBytes  int // per-buffer size, tx and rx; 0 means DefaultBufBytes
	VPort     *nic.VPort
	// Shaper optionally rate-limits the TX queue.
	Shaper *sim.TokenBucket
}

// NewClientPort is NewEthPort plus the steering an addressed endpoint
// needs: wire ingress for the NIC's own IP lands in the port's RQ, so
// frames flooded towards other nodes miss.
func (d *Driver) NewClientPort(cfg EthPortConfig) *EthPort {
	p := d.NewEthPort(cfg)
	ip := d.nic.IP
	d.nic.ESwitch().AddRule(0, nic.Rule{
		Match:  nic.Match{DstIP: &ip},
		Action: nic.Action{ToRQ: p.RQ()}})
	return p
}

// NewEthPort allocates rings and buffers in host memory and programs the
// NIC queues. When cfg.VPort is nil a fresh vport is allocated with a
// default to-wire egress rule.
func (d *Driver) NewEthPort(cfg EthPortConfig) *EthPort {
	if cfg.BufBytes == 0 {
		cfg.BufBytes = DefaultBufBytes
	}
	if cfg.VPort == nil {
		cfg.VPort = d.nic.ESwitch().AddVPort()
		d.nic.ESwitch().AddRule(cfg.VPort.EgressTable, nic.Rule{Action: nic.Action{ToWire: true}})
	}
	p := &EthPort{drv: d, vport: cfg.VPort}
	// Lazy-doorbell timer: rearmed on every non-batch post instead of
	// allocating a check closure per post.
	p.dbTimer = d.eng.NewTimer(dbTimerFire, p)
	p.tx = d.newSendRing(p, nic.SQConfig{Size: cfg.TxEntries, VPort: cfg.VPort, Shaper: cfg.Shaper},
		cfg.BufBytes, func(c nic.CQE) { p.txComplete(c) })
	p.rx = d.newRecvRing(cfg.RxEntries, cfg.RxEntries, cfg.BufBytes, 0,
		func(c nic.CQE) { p.rxComplete(c) })
	if d.tlm != nil {
		p.instrument(d.tlm.scope)
	}
	p.rx.doorbell(p.rx.PI)
	d.queues = append(d.queues, p)
	return p
}

// RQ returns the port's receive queue (for steering rules).
func (p *EthPort) RQ() *nic.RQ { return p.rx.rq }

// VPort returns the port's eSwitch vport.
func (p *EthPort) VPort() *nic.VPort { return p.vport }

// SQ returns the port's send queue.
func (p *EthPort) SQ() *nic.SQ { return p.tx.sq }

func (p *EthPort) rings() (*sendRing, *recvRing) { return &p.tx, &p.rx }

// Send transmits a copy of one frame, charging CPU cost; frames beyond
// the ring capacity queue in software.
func (p *EthPort) Send(frame []byte) {
	if p.drv.downN == 0 && len(frame) > p.tx.bufSz {
		// No transmit buffer can hold it: lost like any other transmit.
		p.drv.TxErrors++
		return
	}
	p.tx.send(frame)
}

func (p *EthPort) post(frame []byte) {
	// Latency path: when not batching, push small frames inline through
	// the doorbell page (WQE-by-MMIO / BlueFlame), skipping both the
	// descriptor fetch and the payload DMA read.
	if p.drv.Prm.DoorbellBatch == 1 && len(frame) <= 96 {
		w := nic.SendWQE{Opcode: nic.OpSendInl, Index: uint16(p.tx.ring.PI), Signal: true,
			Inline: frame}
		p.tx.ring.Post(struct{}{})
		p.drv.TxPackets++
		p.tTxPosts.Inc()
		p.tTxInline.Inc()
		b := p.drv.eng.Bufs().Get(w.WireSize())
		w.MarshalInto(b)
		p.drv.host.WriteOwned(p.drv.bar+nic.SQDoorbellOffset(p.tx.sq.ID), b, b, nil)
		return
	}
	every := uint32(p.drv.Prm.SignalEvery)
	p.tx.write(frame, every == 1 || p.tx.ring.PI%every == every-1)
	p.sincedb++
	p.tTxPosts.Inc()
	if p.sincedb >= p.drv.Prm.DoorbellBatch {
		p.flushDoorbell()
	} else {
		// Lazy doorbell: make sure it eventually fires even without
		// further sends. Rearming pushes the deadline past any newer
		// post, exactly like the per-post check closure it replaces.
		p.dbTimer.Reset(200 * sim.Nanosecond)
	}
}

// dbTimerFire flushes a doorbell still pending 200 ns after the last post.
func dbTimerFire(a any) {
	p := a.(*EthPort)
	if p.sincedb > 0 {
		p.flushDoorbell()
	}
}

func (p *EthPort) flushDoorbell() {
	p.tDBBatch.Observe(int64(p.sincedb))
	p.tSQDoorbells.Inc()
	p.sincedb = 0
	p.dbTimer.Stop()
	p.drv.doorbell(nic.SQDoorbellOffset(p.tx.sq.ID), p.tx.ring.PI)
}

// Poll is the poll-mode driver's queue-health check: a PMD core notices
// an Error-state queue on its next poll even when the error CQE that
// announced it was itself lost to a fault. It applies the same recovery
// the CQE path would (flush the SQ, reset and re-arm the RQ) and
// reports whether anything needed recovering.
func (p *EthPort) Poll() bool {
	recovered := false
	if p.tx.sq.State() == nic.QueueError {
		p.flushTx()
		recovered = true
	}
	if p.rx.rq.State() == nic.QueueError {
		p.rx.reset()
		recovered = true
	}
	return recovered
}

// flushTx flushes the send ring, whose refill starts a fresh doorbell
// batch.
func (p *EthPort) flushTx() {
	p.sincedb = 0
	p.tx.flush()
}

func (p *EthPort) txComplete(c nic.CQE) {
	if p.drv.downN > 0 {
		// The driver process is dead: nobody polls this CQ. The work is
		// accounted when the restarted driver reattaches.
		p.drv.DownCQEs++
		return
	}
	if c.Opcode == nic.CQEError {
		p.drv.CQEErrors++
		if c.Syndrome == nic.SynQueueErr {
			// Queue-fatal: nothing between ci and pi completed.
			p.flushTx()
			return
		}
		// Per-WQE error: the slot was consumed; fall through and advance
		// ci exactly like a successful completion.
		p.drv.TxErrors++
	}
	n := p.tx.ring.Complete(c.Index)
	if n == 0 {
		// Stale completion from work discarded by a flush reset; the
		// flush already accounted for those frames.
		return
	}
	for range n {
		p.tx.ring.Pop()
	}
	p.tCplBatch.Observe(int64(n))
	if p.OnSendComplete != nil {
		p.OnSendComplete(n)
	}
	p.tx.drain()
}

func (p *EthPort) rxComplete(c nic.CQE) {
	if p.drv.downN > 0 {
		p.drv.DownCQEs++
		return
	}
	if c.Opcode == nic.CQEError {
		p.drv.CQEErrors++
		if c.Syndrome == nic.SynQueueErr {
			p.rx.reset()
			return
		}
	}
	x := p.drv.rxWorks.Get()
	x.p, x.c = p, c
	if c.Opcode == nic.CQEError {
		// Per-packet error: the buffer was consumed, so it is recycled
		// like a good packet's, in ring order — behind the good
		// completions waiting for the CPU, at no cost. Ahead of them it
		// would repost a buffer one occupies, for the NIC to refill.
		p.drv.eng.AtArg(p.drv.cpu.Acquire(0), rxWorkRun, x)
		return
	}
	p.drv.cpuWork(p.drv.Prm.RxCost, rxWorkRun, x)
}
