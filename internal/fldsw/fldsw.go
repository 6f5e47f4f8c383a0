// Package fldsw is the FlexDriver software control plane (paper §5.3): the
// runtime library that binds an FLD instance and a NIC together, plus the
// FLD-E (inline Ethernet acceleration) and FLD-R (RDMA disaggregation)
// high-level abstractions.
//
// Everything here runs "on the host CPU" and only at setup/teardown time:
// queue creation, match-action programming, and connection establishment.
// Once configured, the data path runs entirely between the NIC and FLD.
package fldsw

import (
	"fmt"

	"flexdriver/internal/fld"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// Runtime is the FLD runtime library instance for one (NIC, FLD) pair.
type Runtime struct {
	eng *sim.Engine
	fab *pcie.Fabric
	mem *hostmem.Memory
	nic *nic.NIC
	fld *fld.FLD

	vport *nic.VPort
	vf    *nic.VF // non-nil when the runtime runs inside a virtual function
	txCQ  *nic.CQ
	rxCQ  *nic.CQ
	rq    *nic.RQ
	sqs   []*nic.SQ
	qps   []*nic.QP

	// Errors receives asynchronous data-plane error reports, mirroring
	// the kernel driver's error channel (§5.3).
	Errors []error
	// Recoveries counts completed automatic queue recoveries.
	Recoveries int64
	// CrashResync opts Recover into the crash-aware supervision rung:
	// when the FLD's crash counter moves, every send queue is rewound to
	// the replay window and receive capacity resynced even if no queue
	// entered Error — a short crash with nothing in flight flushes the
	// function's pools without tripping any PCIe timeout. Control planes
	// that crash-restart cores under managed tenants enable this; the
	// default ladder recovers on queue errors only.
	CrashResync bool

	sqByQ        map[int]*nic.SQ // FLD tx queue index -> NIC SQ
	sqOrder      []int           // creation-ordered keys of sqByQ (deterministic scans)
	txRecovering map[int]bool
	rxRecovering bool
	lastCrashes  int64 // fld.Stats.Crashes at the last rx recovery
}

// recoverDelay models the host's interrupt-and-reset latency between a
// queue-fatal error CQE and the driver's modify-queue reset.
const recoverDelay = 2 * sim.Microsecond

// NewRuntime wires an FLD module to a NIC on the physical function. Both
// must already be attached to the fabric; mem is the host's memory
// (holds the receive ring).
func NewRuntime(eng *sim.Engine, fab *pcie.Fabric, mem *hostmem.Memory, n *nic.NIC, f *fld.FLD) *Runtime {
	r, err := newRuntime(eng, fab, mem, n, f, nil)
	if err != nil {
		panic(err) // unreachable: the PF has no quota
	}
	return r
}

// NewRuntimeVF wires an FLD module to a NIC through a virtual function:
// every queue the runtime needs is created via the VF — charged to its
// quota and confined to its forwarding domain — and the runtime's vport
// is the VF's, so the tenant's traffic can never be steered into
// another function's queues. Fails when the quota cannot cover the
// runtime's fixed footprint (two CQs and the shared RQ).
func NewRuntimeVF(eng *sim.Engine, fab *pcie.Fabric, mem *hostmem.Memory, n *nic.NIC, f *fld.FLD, vf *nic.VF) (*Runtime, error) {
	return newRuntime(eng, fab, mem, n, f, vf)
}

func newRuntime(eng *sim.Engine, fab *pcie.Fabric, mem *hostmem.Memory, n *nic.NIC, f *fld.FLD, vf *nic.VF) (*Runtime, error) {
	r := &Runtime{eng: eng, fab: fab, mem: mem, nic: n, fld: f, vf: vf,
		sqByQ: make(map[int]*nic.SQ), txRecovering: make(map[int]bool),
		// A rebuilt runtime can bind a core that has crashed in a
		// previous tenure; those crashes are not this runtime's to
		// recover from.
		lastCrashes: f.Stats.Crashes}
	f.BindNIC(n)
	f.SetOnError(func(queue int, syndrome uint8) {
		r.Errors = append(r.Errors, fmt.Errorf("fldsw: data-plane error on queue %d (syndrome %d)", queue, syndrome))
		if syndrome != nic.SynQueueErr {
			// Per-WQE errors consumed their slot; nothing to reset.
			return
		}
		if queue < 0 {
			r.recoverRx(false)
		} else {
			r.recoverTx(queue, false)
		}
	})

	cfg := f.Config()
	// Completion queues live in FLD's BAR; the NIC writes into them and
	// FLD consumes them in hardware, so no OnCQE software hook.
	var err error
	r.txCQ, err = r.createCQ(nic.CQConfig{Ring: f.TxCQAddr(), Size: cfg.CQEntries})
	if err != nil {
		return nil, err
	}
	r.rxCQ, err = r.createCQ(nic.CQConfig{Ring: f.RxCQAddr(), Size: cfg.CQEntries})
	if err != nil {
		return nil, err
	}

	// The shared receive ring lives in HOST memory (§5.2): the control
	// plane writes its descriptors exactly once; FLD recycles them
	// in-order by producer-index updates only.
	count := f.RxBufCount()
	ringOff := mem.Alloc(uint64(count)*nic.RecvWQESize, 64)
	strideLog2 := uint8(0)
	for s := cfg.RxStrideBytes; s > 1; s >>= 1 {
		strideLog2++
	}
	for i := 0; i < count; i++ {
		w := nic.RecvWQE{Addr: f.RxBufAddr(i), Len: uint32(cfg.RxWQEBytes), StrideLog2: strideLog2}
		mem.WriteAt(ringOff+uint64(i)*nic.RecvWQESize, w.Marshal())
	}
	r.rq, err = r.createRQ(nic.RQConfig{Ring: fab.AddrOf(mem, ringOff), Size: count,
		CQ: r.rxCQ, StrideSize: cfg.RxStrideBytes})
	if err != nil {
		return nil, err
	}
	f.ConfigureRx(r.rq.ID, count)

	if vf != nil {
		r.vport = vf.VPort()
	} else {
		r.vport = n.ESwitch().AddVPort()
	}
	return r, nil
}

// createCQ/createSQ/createRQ route queue creation through the owning
// function: the VF (quota-enforced, domain-scoped) or the PF directly.
func (r *Runtime) createCQ(cfg nic.CQConfig) (*nic.CQ, error) {
	if r.vf != nil {
		return r.vf.CreateCQ(cfg)
	}
	return r.nic.CreateCQ(cfg), nil
}

func (r *Runtime) createSQ(cfg nic.SQConfig) (*nic.SQ, error) {
	if r.vf != nil {
		return r.vf.CreateSQ(cfg)
	}
	return r.nic.CreateSQ(cfg), nil
}

func (r *Runtime) createRQ(cfg nic.RQConfig) (*nic.RQ, error) {
	if r.vf != nil {
		return r.vf.CreateRQ(cfg)
	}
	return r.nic.CreateRQ(cfg), nil
}

// VF returns the runtime's virtual function (nil on the PF).
func (r *Runtime) VF() *nic.VF { return r.vf }

// VPort returns the eSwitch vport representing the accelerator.
func (r *Runtime) VPort() *nic.VPort { return r.vport }

// RQ returns the NIC receive queue feeding FLD (for steering rules).
func (r *Runtime) RQ() *nic.RQ { return r.rq }

// FLD returns the bound hardware module.
func (r *Runtime) FLD() *fld.FLD { return r.fld }

// NIC returns the bound adapter.
func (r *Runtime) NIC() *nic.NIC { return r.nic }

// CreateEthTxQueue binds FLD transmit queue q to a new raw-Ethernet NIC
// send queue on the accelerator's vport.
func (r *Runtime) CreateEthTxQueue(q int, shaper *sim.TokenBucket) *nic.SQ {
	return r.CreateWeightedEthTxQueue(q, shaper, 0)
}

// CreateWeightedEthTxQueue additionally enrolls the queue in the NIC's
// ETS egress arbitration with the given weight (§5.5: queues progress at
// different rates under NIC prioritization; the accelerator observes this
// through per-queue credits). On a VF runtime the queue is charged to
// the VF's quota; exceeding it panics — use TryCreateWeightedEthTxQueue
// where quota denial is an expected outcome.
func (r *Runtime) CreateWeightedEthTxQueue(q int, shaper *sim.TokenBucket, weight int) *nic.SQ {
	sq, err := r.TryCreateWeightedEthTxQueue(q, shaper, weight)
	if err != nil {
		panic(err)
	}
	return sq
}

// TryCreateWeightedEthTxQueue is the error-returning form: a VF whose SQ
// quota is exhausted gets an error instead of a queue.
func (r *Runtime) TryCreateWeightedEthTxQueue(q int, shaper *sim.TokenBucket, weight int) (*nic.SQ, error) {
	cfg := r.fld.Config()
	sq, err := r.createSQ(nic.SQConfig{
		Ring:   r.fld.TxRingAddr(q),
		Size:   cfg.TxRingEntries,
		CQ:     r.txCQ,
		VPort:  r.vport,
		Shaper: shaper,
		Weight: weight,
	})
	if err != nil {
		return nil, err
	}
	r.fld.ConfigureTxQueue(q, sq.ID)
	r.sqs = append(r.sqs, sq)
	r.sqByQ[q] = sq
	r.sqOrder = append(r.sqOrder, q)
	return sq, nil
}

// CreateQP binds FLD transmit queue q to a new RDMA queue pair whose
// receives land in FLD's shared receive queue — the FLD-R split of the
// verbs QP abstraction: software owns the transport endpoint, the
// accelerator owns the data motion (§5.3).
func (r *Runtime) CreateQP(q int) *nic.QP {
	if r.vf != nil {
		// The RoCE transport bypasses the eSwitch pipeline, so a QP has
		// no forwarding domain to confine it; RDMA stays PF-only.
		panic("fldsw: RDMA QPs are not available on a VF runtime")
	}
	cfg := r.fld.Config()
	sq := r.nic.CreateSQ(nic.SQConfig{
		Ring: r.fld.TxRingAddr(q),
		Size: cfg.TxRingEntries,
		CQ:   r.txCQ,
	})
	qp := r.nic.CreateQP(nic.QPConfig{SQ: sq, RQ: r.rq})
	r.fld.ConfigureTxQueue(q, sq.ID)
	r.sqs = append(r.sqs, sq)
	r.sqByQ[q] = sq
	r.sqOrder = append(r.sqOrder, q)
	r.qps = append(r.qps, qp)
	return qp
}

// recoverTx resets a queue-fatal NIC SQ after the driver latency and
// replays the FLD's outstanding descriptor window (§5.3's error channel
// closed into an automatic recovery loop). afterCrash relaxes the
// Error-state gate: a crash–restart flushed the FLD's pools, so the SQ
// must rewind to the replay window even if it never saw a read fail.
func (r *Runtime) recoverTx(q int, afterCrash bool) {
	sq := r.sqByQ[q]
	if sq == nil || r.txRecovering[q] {
		return
	}
	r.txRecovering[q] = true
	r.eng.After(recoverDelay, func() {
		r.txRecovering[q] = false
		if !afterCrash && sq.State() != nic.QueueError {
			return
		}
		ci, pi := r.fld.ReplayWindow(q)
		sq.ResetTo(ci, pi)
		if sq.State() != nic.QueueReady {
			// Reset is refused while the NIC itself is crashed; the
			// watchdog retries after the device restarts.
			return
		}
		r.Recoveries++
	})
}

// recoverRx resets the shared receive queue and re-arms FLD delivery.
// afterCrash resyncs even when the RQ never entered Error — a crash
// with no receive traffic in flight still abandons the FLD's buffer
// bookkeeping.
func (r *Runtime) recoverRx(afterCrash bool) {
	if r.rxRecovering {
		return
	}
	r.rxRecovering = true
	r.eng.After(recoverDelay, func() {
		r.rxRecovering = false
		if !afterCrash && r.rq.State() != nic.QueueError {
			return
		}
		if r.rq.State() == nic.QueueError {
			r.rq.Reset()
			if r.rq.State() != nic.QueueReady {
				// Refused while the NIC is crashed; retried by the watchdog.
				return
			}
		}
		if c := r.fld.Stats.Crashes; c != r.lastCrashes {
			// An FLD crash lost the on-die receive bookkeeping (current
			// buffer, stride counts, un-recycled credits): resync the
			// producer index to full capacity instead of the incremental
			// re-arm, which assumes that state survived.
			r.lastCrashes = c
			r.fld.ResyncRx(r.rq.Posted())
		} else {
			r.fld.ReArmRx()
		}
		r.Recoveries++
	})
}

// Recover scans the runtime's queues and schedules recovery for any in
// the Error state — the watchdog path for the case where the error CQE
// itself was lost to a fault and the SetOnError channel never fired.
//
// With CrashResync set it also watches the FLD's crash counter: a short crash window with
// little traffic in flight can flush the function's pools while every
// NIC queue stays Ready — no read was outstanding, so nothing timed
// out — yet the rings still point at descriptors whose pool state died
// with the function. When the counter moved, force the replay-window
// rewind and receive resync whatever state the queues are in.
func (r *Runtime) Recover() {
	if r.CrashResync && !r.fld.Down() && r.fld.Stats.Crashes != r.lastCrashes {
		// Creation order, not map order: recovery schedules events, and
		// event insertion order must replay identically for parallel
		// determinism.
		for _, q := range r.sqOrder {
			r.recoverTx(q, true)
		}
		if r.rq != nil {
			r.recoverRx(true)
		} else {
			r.lastCrashes = r.fld.Stats.Crashes
		}
		return
	}
	for _, q := range r.sqOrder {
		if r.sqByQ[q].State() == nic.QueueError {
			r.recoverTx(q, false)
		}
	}
	if r.rq != nil && r.rq.State() == nic.QueueError {
		r.recoverRx(false)
	}
}

// NudgeTx heals silently lost transmit postings: a doorbell or
// WQE-by-MMIO write dropped on the fabric leaves the NIC idle — every
// descriptor it received executed — while the FLD still counts more
// posted. No read ever times out, so no queue errors and the ordinary
// ladder never fires; only the producer-index comparison sees the gap,
// and without repair a tenant drain would wait on it forever. The
// repair is the crash rung's rewind: reset the queue over the FLD's
// replay window, regenerating the lost descriptors from the pool.
// Executed-but-unsignaled descriptors replay with them (at-least-once
// delivery), so callers gate this on the drain path, not the hot path.
func (r *Runtime) NudgeTx() {
	if r.fld.Down() {
		return
	}
	for _, q := range r.sqOrder {
		if sq := r.sqByQ[q]; sq.Idle() && sq.PI() != r.fld.TxPosted(q) {
			r.recoverTx(q, true)
		}
	}
}

// QueuesReady reports whether every queue the runtime owns is in the
// Ready state (no recovery outstanding).
func (r *Runtime) QueuesReady() bool {
	for _, sq := range r.sqs {
		if sq.State() != nic.QueueReady {
			return false
		}
	}
	return r.rq == nil || r.rq.State() == nic.QueueReady
}

// Drained reports whether the runtime's transmit path has settled: the
// FLD is fully quiesced, or every NIC send queue has executed exactly
// the work the FLD posted (Idle, with the producer index agreeing with
// the FLD's). In the latter case any descriptor the FLD still tracks is
// finished work whose completion report was unsignaled — or lost to a
// crash window — so no amount of waiting would quiesce the core; its
// bookkeeping is reclaimed by the next signaled completion or by the
// function reset at teardown. Tenant drains gate on this before
// reconfiguring.
func (r *Runtime) Drained() bool {
	if r.fld.Down() {
		return false
	}
	if r.fld.Quiesced() {
		return true
	}
	for _, q := range r.sqOrder {
		sq := r.sqByQ[q]
		if !sq.Idle() || sq.PI() != r.fld.TxPosted(q) {
			return false
		}
	}
	return true
}

// Start arms the receive path.
func (r *Runtime) Start() { r.fld.Start() }

// StartEth brings the core up as a plain Ethernet sender: transmit queue
// 0, untagged accelerator egress straight to the wire, receive path
// armed. The returned control plane takes any further FLD-E rules.
func (r *Runtime) StartEth() *EControlPlane {
	r.CreateEthTxQueue(0, nil)
	ecp := NewEControlPlane(r)
	ecp.InstallDefaultEgressToWire()
	r.Start()
	return ecp
}
