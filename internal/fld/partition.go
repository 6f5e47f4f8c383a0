package fld

// Partition assigns FLD cores to tenants. A multi-core FPGA exposes one
// FLD instance per core; partitioning hands each tenant a disjoint set
// of cores, so the isolation story is structural: a core's descriptor
// pool, buffer pool, translation tables and replay credits are private
// to the instance, and a tenant's AFU stalling or crashing burns only
// the cores the partition gave it. The partition is the control plane's
// ledger of that assignment — it refuses double-assignment and answers
// "whose core is this" for supervision and telemetry.

import (
	"fmt"
	"sort"
)

// Partition is the core→tenant assignment ledger for one FPGA.
type Partition struct {
	tenantOf map[*FLD]string
	cores    map[string][]*FLD // assignment order per tenant
}

// NewPartition returns an empty ledger.
func NewPartition() *Partition {
	return &Partition{
		tenantOf: make(map[*FLD]string),
		cores:    make(map[string][]*FLD),
	}
}

// Assign gives a core to a tenant. A core already assigned — to anyone,
// including the same tenant — is refused: cores move only through an
// explicit Release, so two tenants can never share one.
func (p *Partition) Assign(tenant string, f *FLD) error {
	if tenant == "" {
		return fmt.Errorf("fld: partition: empty tenant name")
	}
	if owner, ok := p.tenantOf[f]; ok {
		return fmt.Errorf("fld: partition: core %s already assigned to %q", f.PCIeName(), owner)
	}
	p.tenantOf[f] = tenant
	p.cores[tenant] = append(p.cores[tenant], f)
	return nil
}

// Release returns a core to the free pool (VF teardown, tenant removal).
func (p *Partition) Release(f *FLD) {
	tenant, ok := p.tenantOf[f]
	if !ok {
		return
	}
	delete(p.tenantOf, f)
	cs := p.cores[tenant]
	for i, c := range cs {
		if c == f {
			p.cores[tenant] = append(cs[:i], cs[i+1:]...)
			break
		}
	}
	if len(p.cores[tenant]) == 0 {
		delete(p.cores, tenant)
	}
}

// Cores returns a tenant's cores in assignment order.
func (p *Partition) Cores(tenant string) []*FLD { return p.cores[tenant] }

// Tenants returns every tenant holding cores, sorted by name.
func (p *Partition) Tenants() []string {
	out := make([]string, 0, len(p.cores))
	for t := range p.cores {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Quiesced reports whether the FLD has no transmit work in flight: every
// descriptor it posted has been completed (or crash-flushed) and its
// resources released. Drain gates on this before reconfiguring a tenant,
// so a reconfigure never strands replay credits mid-window. A crashed
// core is not quiesced — its recovery replay is still owed.
func (f *FLD) Quiesced() bool {
	if f.downN > 0 {
		return false
	}
	for _, tq := range f.queues {
		if tq.ring.Len() > 0 {
			return false
		}
	}
	return true
}

// TxPosted returns the producer index of transmit queue q — how many
// descriptors the FLD has ever posted to it. Drain logic compares this
// against the NIC send queue's own indices: when the NIC has executed
// up to this index, any descriptor the FLD still tracks is finished
// work whose completion report was unsignaled or lost, not work in
// flight.
func (f *FLD) TxPosted(q int) uint32 { return f.queues[q].ring.PI }
