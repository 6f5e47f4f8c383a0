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
	"flexdriver/internal/recovery"
	"flexdriver/internal/sim"
)

// Runtime is the FLD runtime library instance for one (NIC, FLD) pair.
//
// Its recovery loop is a recovery.Ladder, the same one the host
// supervisor and the tenancy reconciler run, kicked by the error channel
// and by watchdog sweeps (Kick): an episode stays open until Healthy,
// and its one rung (reset) rewinds and re-arms the queues.
type Runtime struct {
	ladder *recovery.Ladder
	fab    *pcie.Fabric
	mem    *hostmem.Memory
	nic    *nic.NIC
	fld    *fld.FLD

	vport *nic.VPort
	vf    *nic.VF // non-nil when the runtime runs inside a virtual function
	txCQ  *nic.CQ
	rxCQ  *nic.CQ
	rq    *nic.RQ
	txqs  []txQueue // creation order, so recovery scans replay identically

	// Errors receives asynchronous data-plane error reports, mirroring
	// the kernel driver's error channel (§5.3).
	Errors []error

	// epoch is the core's crash count the runtime last resynchronised
	// at. A crash flushes the core's pools even when no NIC queue trips
	// into Error (nothing was in flight, so nothing timed out), yet the
	// rings still point at descriptors whose pool state died with the
	// function; the moved count is what tells the ladder.
	epoch int64
}

// txQueue binds an FLD transmit queue to the NIC send queue serving it.
type txQueue struct {
	q  int
	sq *nic.SQ
}

// runtimeParams pace the runtime's ladder. The first attempt waits out
// the host's interrupt-and-reset latency between a queue-fatal error
// report and the driver's modify-queue reset; retries back off like the
// host supervisor's.
var runtimeParams = recovery.Params{
	Rungs: []string{"reset"},
	Delay: 2 * sim.Microsecond,
	Base:  500 * sim.Nanosecond, Max: 4 * sim.Microsecond,
}

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
	r := &Runtime{fab: fab, mem: mem, nic: n, fld: f, vf: vf,
		// A rebuilt runtime can bind a core that has crashed in a
		// previous tenure; those crashes are not this runtime's to
		// recover from.
		epoch: f.Stats.Crashes}
	f.BindNIC(n)

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
	// The receive queue's number tells a node's runtimes apart, so it
	// seeds the ladder's jitter stream.
	r.ladder = recovery.New(eng, sim.NewLightRand(int64(r.rq.ID)), runtimeParams, r.Healthy, r.reset)
	f.SetOnError(func(queue int, syndrome uint8) {
		r.Errors = append(r.Errors, fmt.Errorf("fldsw: data-plane error on queue %d (syndrome %d)", queue, syndrome))
		// A per-WQE error consumed its slot and leaves the runtime
		// healthy, so the kick is a no-op; a queue-fatal one opens an
		// episode.
		r.Kick()
	})

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
	r.txqs = append(r.txqs, txQueue{q, sq})
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
	r.txqs = append(r.txqs, txQueue{q, sq})
	return qp
}

// Healthy reports whether the runtime needs no recovery: the core and
// the NIC are up, every queue it owns is Ready, and it has resynchronised
// since the core last crashed. A runtime whose virtual function was
// destroyed has nothing left to recover.
func (r *Runtime) Healthy() bool {
	if r.vf != nil && r.vf.Destroyed() {
		return true
	}
	return !r.fld.Down() && !r.nic.Down() && r.fld.Stats.Crashes == r.epoch && r.QueuesReady()
}

// reset is the ladder's one rung (§5.3's error channel closed into an
// automatic recovery loop). Nothing sticks while the core or the NIC is
// down, so the attempt waits for the next one. Otherwise every send queue
// in Error — after a crash of the core, every send queue — rewinds over
// the FLD's replay window, and the receive queue is reset if it errored
// and re-armed: incrementally after a queue error, to full capacity after
// a crash, which lost the on-die receive bookkeeping (current buffer,
// stride counts, un-recycled credits) the incremental re-arm assumes.
func (r *Runtime) reset(int) {
	if r.fld.Down() || r.nic.Down() {
		return
	}
	crashed := r.fld.Stats.Crashes != r.epoch
	for _, t := range r.txqs {
		if crashed || t.sq.State() == nic.QueueError {
			r.rewind(t)
		}
	}
	rxErr := r.rq.State() == nic.QueueError
	if rxErr {
		r.rq.Reset()
	}
	switch {
	case crashed:
		r.epoch = r.fld.Stats.Crashes
		r.fld.ResyncRx(r.rq.Posted())
	case rxErr:
		r.fld.ReArmRx()
	}
}

// Kick is the watchdog edge of the runtime's recovery ladder.
func (r *Runtime) Kick() { r.ladder.Kick() }

// rewind resets a send queue over the FLD's replay window, so the NIC
// re-fetches and re-executes exactly the work the FLD still holds.
func (r *Runtime) rewind(t txQueue) { t.sq.ResetTo(r.fld.ReplayWindow(t.q)) }

// NudgeTx heals silently lost transmit postings: a doorbell or
// WQE-by-MMIO write dropped on the fabric leaves the NIC idle — every
// descriptor it received executed — while the FLD still counts more
// posted. No read ever times out, so no queue errors and the ladder never
// opens; only the producer-index comparison sees the gap, and without
// repair a tenant drain would wait on it forever. The repair is the
// crash rewind, applied at once to the idle queue: the FLD's replay
// window regenerates the lost descriptors from the pool.
// Executed-but-unsignaled descriptors replay with them (at-least-once
// delivery), so callers gate this on the drain path, not the hot path.
// While an episode is open the ladder owns the queues.
func (r *Runtime) NudgeTx() {
	if r.fld.Down() || r.ladder.Active() {
		return
	}
	for _, t := range r.txqs {
		if t.sq.Idle() && t.sq.PI() != r.fld.TxPosted(t.q) {
			r.rewind(t)
		}
	}
}

// QueuesReady reports whether every queue the runtime owns is in the
// Ready state (no recovery outstanding).
func (r *Runtime) QueuesReady() bool {
	for _, t := range r.txqs {
		if t.sq.State() != nic.QueueReady {
			return false
		}
	}
	return r.rq.State() == nic.QueueReady
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
	for _, t := range r.txqs {
		if !t.sq.Idle() || t.sq.PI() != r.fld.TxPosted(t.q) {
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
