package nic

// SR-IOV-style virtual functions. The NIC itself is the physical
// function (PF): it owns the wire, the uplink vport, and — as on real
// adapters — the lifecycle of every VF. A VF is a slice of the device a
// tenant can be handed without trusting it:
//
//   - its own eSwitch forwarding domain (a dedicated vport whose
//     ingress/egress tables carry the VF's domain tag; the pipeline
//     refuses to deliver one VF's traffic into another VF's queues, no
//     matter what rules were programmed — see ESwitch.process);
//   - a queue quota (SQ/RQ/CQ creation through the VF fails once the
//     allotment is spent, so one tenant cannot exhaust the device);
//   - a bandwidth slice: an ETS weight arbitrating the egress port
//     among functions (all of a VF's queues share ONE deficit-round-
//     robin account, so adding queues does not add bandwidth) and an
//     optional aggregate shaper bounding the VF's egress rate.
//
// Function-level reset is PF-owned: VF.FLR resets exactly the VF's
// queues (replay semantics, like the device FLR) and the device-level
// NIC.FLR/Crash still cover every function's queues at once.

import (
	"fmt"

	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// VFQuota bounds how many queues of each kind a VF may create.
type VFQuota struct {
	SQs, RQs, CQs int
}

// VFConfig configures a new virtual function.
type VFConfig struct {
	Quota VFQuota
	// Weight is the VF's ETS share of the egress port (0 = the VF's
	// queues arbitrate individually, like PF queues).
	Weight int
	// Rate, when nonzero, bounds the VF's aggregate egress rate with a
	// shared token-bucket shaper; Burst is the bucket depth in bytes
	// (default 2 MTU-class frames).
	Rate  sim.BitRate
	Burst int
}

// VF is one virtual function. Create through NIC.CreateVF; all queue
// creation for the function goes through the VF so quotas and the
// forwarding domain are enforced at the source.
type VF struct {
	ID    int
	n     *NIC
	vport *VPort

	Quota  VFQuota
	weight int
	shaper *sim.TokenBucket

	// Owned queue IDs in creation order (deterministic FLR walks).
	sqIDs, rqIDs, cqIDs []uint32

	destroyed bool

	scope        *telemetry.Scope   // nil unless the NIC has telemetry
	tQuotaDenied *telemetry.Counter // creation attempts refused by quota
	tFLRs        *telemetry.Counter // function-level resets
}

// CreateVF allocates a virtual function: a fresh eSwitch vport tagged
// with the VF's domain, plus the quota and bandwidth slice from cfg.
// PF-owned: only the NIC hands out functions.
func (n *NIC) CreateVF(cfg VFConfig) *VF {
	n.nextVF++
	vf := &VF{
		ID:     n.nextVF,
		n:      n,
		Quota:  cfg.Quota,
		weight: cfg.Weight,
	}
	vf.vport = n.esw.AddVPort()
	vf.vport.Domain = vf.ID
	if cfg.Rate > 0 {
		burst := cfg.Burst
		if burst == 0 {
			burst = 2 * 1500
		}
		vf.shaper = sim.NewTokenBucket(n.eng, cfg.Rate, burst)
	}
	if n.vfs == nil {
		n.vfs = make(map[int]*VF)
	}
	n.vfs[vf.ID] = vf
	if n.tlm != nil {
		vf.instrument(n.tlm.scope)
	}
	return vf
}

// VFs returns every live function in ID order.
func (n *NIC) VFs() []*VF {
	ids := make([]int, 0, len(n.vfs))
	for id := range n.vfs {
		ids = append(ids, id)
	}
	sortInts(ids)
	out := make([]*VF, 0, len(ids))
	for _, id := range ids {
		out = append(out, n.vfs[id])
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// instrument attaches the VF's own counters under vf<ID>/ and remembers
// the scope so queues created later land under the same prefix.
func (vf *VF) instrument(sc *telemetry.Scope) {
	vf.scope = sc.Scope(fmt.Sprintf("vf%d", vf.ID))
	vf.tQuotaDenied = vf.scope.Counter("quota_denied")
	vf.tFLRs = vf.scope.Counter("flrs")
}

// VPort returns the VF's eSwitch vport (its forwarding domain's entry).
func (vf *VF) VPort() *VPort { return vf.vport }

// Weight returns the VF's ETS share.
func (vf *VF) Weight() int { return vf.weight }

// Destroyed reports whether DestroyVF has torn the function down.
func (vf *VF) Destroyed() bool { return vf.destroyed }

// SetWeight re-slices the VF's ETS share live; frames already queued
// keep their accumulated deficit, new rounds accrue at the new weight.
func (vf *VF) SetWeight(w int) {
	vf.weight = w
	if vf.n.ets != nil {
		vf.n.ets.setWeight(vfETSKey(vf.ID), w)
	}
}

// SetRate re-bounds (or, with 0, removes) the VF's aggregate shaper.
// Queues created earlier keep pointing at the same bucket when one
// exists, so a live rate change applies to in-flight traffic too.
func (vf *VF) SetRate(rate sim.BitRate, burst int) {
	if rate == 0 {
		vf.shaper = nil
		for _, id := range vf.sqIDs {
			if sq := vf.n.sqs[id]; sq != nil && sq.vf == vf {
				sq.Shaper = nil
			}
		}
		return
	}
	if burst == 0 {
		burst = 2 * 1500
	}
	if vf.shaper != nil {
		vf.shaper.SetRate(rate, burst)
		return
	}
	vf.shaper = sim.NewTokenBucket(vf.n.eng, rate, burst)
	for _, id := range vf.sqIDs {
		if sq := vf.n.sqs[id]; sq != nil && sq.vf == vf {
			sq.Shaper = vf.shaper
		}
	}
}

// quotaDeny records a creation attempt the quota refused.
func (vf *VF) quotaDeny(kind string) error {
	vf.tQuotaDenied.Inc()
	return fmt.Errorf("nic: vf%d %s quota exhausted", vf.ID, kind)
}

// CreateCQ allocates a completion queue against the VF's quota.
func (vf *VF) CreateCQ(cfg CQConfig) (*CQ, error) {
	if vf.destroyed {
		return nil, fmt.Errorf("nic: vf%d is destroyed", vf.ID)
	}
	if len(vf.cqIDs) >= vf.Quota.CQs {
		return nil, vf.quotaDeny("CQ")
	}
	cq := vf.n.createCQ(cfg, vf)
	vf.cqIDs = append(vf.cqIDs, cq.ID)
	return cq, nil
}

// CreateSQ allocates a send queue against the VF's quota. The queue
// egresses through the VF's vport unless cfg overrides it with another
// vport of the same domain, shares the VF's aggregate shaper unless cfg
// sets its own, and joins the VF's shared ETS account when the VF has a
// weight and cfg does not claim one.
func (vf *VF) CreateSQ(cfg SQConfig) (*SQ, error) {
	if vf.destroyed {
		return nil, fmt.Errorf("nic: vf%d is destroyed", vf.ID)
	}
	if len(vf.sqIDs) >= vf.Quota.SQs {
		return nil, vf.quotaDeny("SQ")
	}
	if cfg.VPort == nil {
		cfg.VPort = vf.vport
	} else if cfg.VPort.Domain != vf.ID {
		return nil, fmt.Errorf("nic: vf%d cannot transmit via vport %d (domain %d)",
			vf.ID, cfg.VPort.ID, cfg.VPort.Domain)
	}
	if cfg.Shaper == nil {
		cfg.Shaper = vf.shaper
	}
	sq := vf.n.createSQ(cfg, vf)
	vf.sqIDs = append(vf.sqIDs, sq.ID)
	return sq, nil
}

// CreateRQ allocates a receive queue against the VF's quota. Packets may
// reach it only from the wire, the PF, or the VF's own domain — the
// eSwitch pipeline blocks deliveries from other VFs.
func (vf *VF) CreateRQ(cfg RQConfig) (*RQ, error) {
	if vf.destroyed {
		return nil, fmt.Errorf("nic: vf%d is destroyed", vf.ID)
	}
	if len(vf.rqIDs) >= vf.Quota.RQs {
		return nil, vf.quotaDeny("RQ")
	}
	rq := vf.n.createRQ(cfg, vf)
	vf.rqIDs = append(vf.rqIDs, rq.ID)
	return rq, nil
}

// FLR resets exactly this function's queues, with the same replay
// semantics as the device-level NIC.FLR: SQs re-fetch their posted
// window, RQs rewind their prefetch pipeline. A no-op while the device
// is down. Queue order is creation order, so the rescheduled work is
// identical run to run.
func (vf *VF) FLR() {
	if vf.n.downN > 0 {
		return
	}
	vf.tFLRs.Inc()
	for _, id := range vf.sqIDs {
		if sq := vf.n.sqs[id]; sq != nil {
			sq.ResetTo(sq.ci, sq.pi)
		}
	}
	for _, id := range vf.rqIDs {
		if rq := vf.n.rqs[id]; rq != nil {
			rq.Reset()
		}
	}
}

// DestroyVF tears a function down: its queues are failed (in-flight
// work is invalidated), removed from the device, its tables cleared and
// its vport retired. PF-owned, like creation. Telemetry counters the
// function registered stay in the registry — a destroyed tenant's
// history remains observable.
func (n *NIC) DestroyVF(vf *VF) {
	if vf == nil || vf.destroyed || vf.n != n {
		return
	}
	vf.destroyed = true
	for _, id := range vf.sqIDs {
		if sq := n.sqs[id]; sq != nil {
			sq.fail()
			delete(n.sqs, id)
		}
	}
	for _, id := range vf.rqIDs {
		if rq := n.rqs[id]; rq != nil {
			rq.fail()
			delete(n.rqs, id)
		}
	}
	for _, id := range vf.cqIDs {
		delete(n.cqs, id)
	}
	n.esw.ClearTable(vf.vport.IngressTable)
	n.esw.ClearTable(vf.vport.EgressTable)
	n.esw.removeVPort(vf.vport.ID)
	delete(n.vfs, vf.ID)
}

// vfETSKey is the shared deficit-round-robin account for a VF's queues.
// The high bit keeps the key space disjoint from per-SQ IDs.
func vfETSKey(vfID int) uint32 { return 1<<31 | uint32(vfID) }

// domain is the RQ's forwarding domain (its owning VF's ID; 0 for PF).
func (rq *RQ) domain() int {
	if rq.vf != nil {
		return rq.vf.ID
	}
	return 0
}
