package fldsw

import (
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
)

// EControlPlane is the FLD-E high-level abstraction (paper §5.3): it
// extends the NIC's match-action API with an "accelerate" action that
// detours matching packets through the accelerator and resumes pipeline
// processing at a designated next table when they come back, plus the
// §5.4 tenant-tagging and isolation machinery.
type EControlPlane struct {
	rt *Runtime
	// resumeTable maps context IDs to the table processing resumes at
	// when the accelerator returns a packet with that tag.
	resumeInstalled map[uint32]bool
}

// NewEControlPlane builds the FLD-E control plane over a runtime and
// installs the return-path dispatch on the accelerator vport's egress
// table.
func NewEControlPlane(rt *Runtime) *EControlPlane {
	return &EControlPlane{rt: rt, resumeInstalled: make(map[uint32]bool)}
}

// AccelerateSpec describes one acceleration detour.
type AccelerateSpec struct {
	// Table and Match select the packets to accelerate.
	Table int
	Match nic.Match
	// Context tags the packets so the accelerator can identify the
	// tenant/flow (carried in FLD metadata both ways). Must be unique
	// per spec.
	Context uint32
	// NextTable is where pipeline processing resumes for packets the
	// accelerator sends back with this context.
	NextTable int
	// Decap optionally applies the NIC's tunnel decapsulation before
	// the packet reaches the accelerator ("interleaving packet
	// processing on the accelerator with NIC-offloadable tasks").
	Decap bool
	// Policer optionally rate-limits traffic into the accelerator
	// (per-tenant isolation, §8.2.3).
	Policer *sim.TokenBucket
}

// InstallAccelerate programs the detour: match -> (decap, tag, police) ->
// accelerator; return traffic with the same tag -> NextTable.
func (e *EControlPlane) InstallAccelerate(spec AccelerateSpec) {
	esw := e.rt.nic.ESwitch()
	ctx := spec.Context
	esw.AddRule(spec.Table, nic.Rule{
		Match: spec.Match,
		Action: nic.Action{
			Decap:      spec.Decap,
			SetFlowTag: &ctx,
			Policer:    spec.Policer,
			Count:      "accel-in",
			ToRQ:       e.rt.rq,
		},
	})
	if !e.resumeInstalled[ctx] {
		e.resumeInstalled[ctx] = true
		next := spec.NextTable
		esw.AddRule(e.rt.vport.EgressTable, nic.Rule{
			Match:  nic.Match{FlowTag: &ctx},
			Action: nic.Action{Count: "accel-out", ToTable: &next},
		})
	}
}

// InstallDefaultEgressToWire makes untagged accelerator transmissions go
// straight to the wire (used by pure FLD-E senders like the echo AFU).
func (e *EControlPlane) InstallDefaultEgressToWire() {
	e.rt.nic.ESwitch().AddRule(e.rt.vport.EgressTable, nic.Rule{Action: nic.Action{ToWire: true}})
}

// TenantRuleError describes why a tenant's rule was refused.
type TenantRuleError struct{ Reason string }

func (e *TenantRuleError) Error() string { return "fldsw: tenant rule rejected: " + e.Reason }

// InstallTenantRule validates and installs a match-action rule on behalf
// of an untrusted tenant (paper §5.4: "untrusted VMs cannot control the
// context ID tag and require a trusted entity, e.g., the FLD-E control
// plane, to validate any match-action rules that they attempt to
// install"). The rule may only steer traffic into the accelerator with
// the tenant's own context, into the tenant's own tables, or drop; it may
// not set foreign tags, bypass policing, or touch other tenants' tables.
func (e *EControlPlane) InstallTenantRule(tenantCtx uint32, allowedTables map[int]bool, table int, r nic.Rule) error {
	if !allowedTables[table] {
		return &TenantRuleError{Reason: "table not owned by tenant"}
	}
	a := r.Action
	if a.SetFlowTag != nil && *a.SetFlowTag != tenantCtx {
		return &TenantRuleError{Reason: "foreign context tag"}
	}
	if a.ToTable != nil && !allowedTables[*a.ToTable] {
		return &TenantRuleError{Reason: "jump to foreign table"}
	}
	if a.ToVPort != nil {
		return &TenantRuleError{Reason: "vport forwarding is hypervisor-only"}
	}
	if a.ToRQ == e.rt.rq {
		// Steering into the accelerator must carry the tenant's tag so
		// the AFU bills the right key/quota.
		if a.SetFlowTag == nil {
			return &TenantRuleError{Reason: "accelerator steering must tag the tenant context"}
		}
	}
	e.rt.nic.ESwitch().AddRule(table, r)
	return nil
}
