package flexdriver

import (
	"flexdriver/internal/ctrlplane"
	"flexdriver/internal/fld"
	"flexdriver/internal/fldsw"
	"flexdriver/internal/nic"
	"flexdriver/internal/telemetry"
)

// TenantManager actuates the control plane's desired state on one Innova
// node: it owns VF lifecycle on the NIC, the tenants' FLD cores, and the
// per-(core, VF) runtimes, and it implements ctrlplane.Actuator so a
// Reconciler can converge the node through drain → reconfigure → undrain
// steps. Build one per managed node with NewTenantManager (or
// Cluster.ManageTenants) and feed it specs through Apply.
//
// Its per-tenant record is the only record of a tenant on the node: a
// core the PF does not run is in one tenant's record or on the free
// list, and Observed and the gauges read the records.
type TenantManager struct {
	inn *Innova
	rec *ctrlplane.Reconciler

	tenants map[string]*tenantActuation
	free    []*fld.FLD // released cores awaiting reuse, in release order

	// provision, when set, re-installs a tenant's data plane (steering
	// rules, tx queues, accelerator handlers) after every reconfigure —
	// the experiment's hook for keeping traffic flowing across live
	// reconfigurations.
	provision func(name string, t TenantSpec, rts []*Runtime)
	// onDrainChange, when set, fires at every drain-state transition:
	// once per drain episode as it opens (so a workload can stop
	// steering new frames into the tenant, which is what lets the drain
	// complete under continuous traffic), on undrain, and on removal
	// (so steering resumes or retires with the tenant).
	onDrainChange func(name string)

	sc     *telemetry.Scope // <node>/ctrlplane, nil without telemetry
	gauges map[string]tenantGauges
}

// tenantActuation is one tenant's live footprint on the node.
type tenantActuation struct {
	shape    TenantSpec // the spec entry last actuated
	vfs      []*nic.VF
	cores    []*fld.FLD
	rts      []*fldsw.Runtime
	draining bool
}

// tenantGauges mirror a tenant's actuated shape into the telemetry tree
// under <node>/ctrlplane/tenant/<name>/ — the observable record the
// tenancy experiment (and operators) read convergence from.
type tenantGauges struct {
	vfs, cores, sqs, rqs, cqs, weight, rateMbps *Gauge
}

// NewTenantManager builds the actuator plus its reconciler for one node.
// The seed feeds only the reconciler's backoff-jitter stream.
func NewTenantManager(inn *Innova, seed int64) *TenantManager {
	tm := &TenantManager{
		inn:     inn,
		tenants: make(map[string]*tenantActuation),
		gauges:  make(map[string]tenantGauges),
	}
	tm.rec = ctrlplane.NewReconciler(inn.eng, tm, seed)
	tm.sc = inn.tel.Scope(inn.name).Scope("ctrlplane")
	tm.rec.SetTelemetry(tm.sc)
	return tm
}

// Reconciler exposes the node's reconcile loop (for watchdog Kicks and
// convergence checks).
func (tm *TenantManager) Reconciler() *ctrlplane.Reconciler { return tm.rec }

// Apply hands a desired-state spec to the node's reconciler.
func (tm *TenantManager) Apply(spec TenancySpec) error { return tm.rec.Apply(spec) }

// SetProvision installs the data-plane (re)provisioning hook, called at
// the end of every successful Reconfigure with the tenant's fresh
// runtimes (one per core, each bound to one of the tenant's VFs).
func (tm *TenantManager) SetProvision(fn func(name string, t TenantSpec, rts []*Runtime)) {
	tm.provision = fn
}

// SetOnDrainChange installs the drain-transition hook (see
// onDrainChange).
func (tm *TenantManager) SetOnDrainChange(fn func(name string)) { tm.onDrainChange = fn }

// Draining reports whether the tenant is mid-drain: traffic generators
// gate new work on this, which is what lets a drain complete.
func (tm *TenantManager) Draining(name string) bool {
	a := tm.tenants[name]
	return a != nil && a.draining
}

// VFs returns the tenant's live virtual functions (nil if not running).
func (tm *TenantManager) VFs(name string) []*nic.VF {
	if a := tm.tenants[name]; a != nil {
		return a.vfs
	}
	return nil
}

// Runtimes returns the tenant's live runtimes, one per assigned core.
func (tm *TenantManager) Runtimes(name string) []*Runtime {
	if a := tm.tenants[name]; a != nil {
		return a.rts
	}
	return nil
}

// Cores returns the tenant's assigned FLD cores in assignment order.
func (tm *TenantManager) Cores(name string) []*FLD {
	if a := tm.tenants[name]; a != nil {
		return a.cores
	}
	return nil
}

// --- ctrlplane.Actuator ---

// Observed reports the tenants the node is actually running. The same
// shapes are mirrored as gauges under <node>/ctrlplane/tenant/<name>/,
// so the telemetry tree and the reconciler agree by construction.
func (tm *TenantManager) Observed() map[string]TenantSpec {
	out := make(map[string]TenantSpec, len(tm.tenants))
	for name, a := range tm.tenants {
		out[name] = a.shape
	}
	return out
}

// Drain stops feeding the tenant new work (via Draining) and reports
// whether its in-flight work has quiesced: every assigned core idle with
// no replay window owed, every runtime queue Ready. A tenant the node
// does not run drains trivially.
func (tm *TenantManager) Drain(name string) bool {
	a := tm.tenants[name]
	if a == nil {
		return true
	}
	if !a.draining {
		a.draining = true
		if tm.onDrainChange != nil {
			tm.onDrainChange(name)
		}
	}
	// Drained (rather than bare Quiesced) tolerates an executed-but-
	// unsignaled descriptor tail: once traffic stops, the NIC owes no
	// CQE for it, so waiting on full quiescence would wedge the drain.
	for _, rt := range a.rts {
		if !rt.QueuesReady() || !rt.Drained() {
			// A posting silently lost on the fabric (dropped doorbell or
			// WQE write) never errors a queue, so nothing but this drain
			// would ever repair it — nudge before the next attempt.
			rt.NudgeTx()
			return false
		}
	}
	return true
}

// Reconfigure creates the tenant or reshapes it to the desired state.
// Bandwidth-only changes (weight, rate) re-slice the live VFs without
// touching queues; anything structural rebuilds the tenant from scratch
// — the reconciler guarantees it is drained first.
func (tm *TenantManager) Reconfigure(name string, t TenantSpec) error {
	if old := tm.tenants[name]; old != nil && old.shape.VFs == t.VFs &&
		old.shape.Cores == t.Cores && old.shape.SQs == t.SQs &&
		old.shape.RQs == t.RQs && old.shape.CQs == t.CQs {
		for _, vf := range old.vfs {
			vf.SetWeight(t.Weight)
			vf.SetRate(perVFRate(t), 0)
		}
		old.shape = t
		tm.publish(name, t)
		if tm.provision != nil {
			tm.provision(name, t, old.rts)
		}
		return nil
	}

	tm.teardown(name)
	a := &tenantActuation{}
	for i := 0; i < t.VFs; i++ {
		a.vfs = append(a.vfs, tm.inn.NIC.CreateVF(nic.VFConfig{
			Quota:  nic.VFQuota{SQs: t.SQs, RQs: t.RQs, CQs: t.CQs},
			Weight: t.Weight,
			Rate:   perVFRate(t),
		}))
	}
	for i := 0; i < t.Cores; i++ {
		f := tm.takeCore()
		a.cores = append(a.cores, f)
		rt, err := fldsw.NewRuntimeVF(tm.inn.eng, tm.inn.Fab, tm.inn.Mem,
			tm.inn.NIC, f, a.vfs[i%len(a.vfs)])
		if err != nil {
			tm.tenants[name] = a
			tm.teardown(name)
			return err
		}
		a.rts = append(a.rts, rt)
	}
	a.shape = t
	tm.tenants[name] = a
	tm.publish(name, t)
	if tm.provision != nil {
		tm.provision(name, t, a.rts)
	}
	return nil
}

// Undrain resumes the tenant after a successful reconfigure.
func (tm *TenantManager) Undrain(name string) {
	if a := tm.tenants[name]; a != nil {
		a.draining = false
	}
	if tm.onDrainChange != nil {
		tm.onDrainChange(name)
	}
}

// Remove tears the tenant down: VFs destroyed (their queues failed, the
// forwarding domain retired), cores released back to the free pool.
func (tm *TenantManager) Remove(name string) error {
	tm.teardown(name)
	if tm.onDrainChange != nil {
		tm.onDrainChange(name)
	}
	return nil
}

// teardown releases a tenant's footprint. Runtimes die with their VFs:
// DestroyVF fails every queue they hold, so a runtime handle kept past
// teardown can no longer move traffic. A tenant the tree shows reads
// zero from here on, until a rebuild publishes its new shape.
func (tm *TenantManager) teardown(name string) {
	a := tm.tenants[name]
	if a == nil {
		return
	}
	for _, f := range a.cores {
		// Function-reset the released core: any unsignaled descriptor
		// tail it still tracks must not leak pool pages or translations
		// into the next tenant's tenure.
		f.ResetFunction()
		tm.free = append(tm.free, f)
	}
	for _, vf := range a.vfs {
		tm.inn.NIC.DestroyVF(vf)
	}
	delete(tm.tenants, name)
	if _, shown := tm.gauges[name]; shown {
		tm.publish(name, TenantSpec{})
	}
}

// takeCore reuses a released core or instantiates a fresh one on the
// node's FPGA.
func (tm *TenantManager) takeCore() *fld.FLD {
	if n := len(tm.free); n > 0 {
		f := tm.free[0]
		tm.free = tm.free[1:]
		return f
	}
	return tm.inn.newCore(tm.inn.FLD.Config())
}

// perVFRate splits a tenant's aggregate rate cap evenly across its VFs.
func perVFRate(t TenantSpec) BitRate {
	if t.RateGbps <= 0 || t.VFs <= 0 {
		return 0
	}
	return BitRate(t.RateGbps) * Gbps / BitRate(t.VFs)
}

// publish mirrors the tenant's actuated shape into the telemetry tree.
func (tm *TenantManager) publish(name string, s TenantSpec) {
	if tm.sc == nil {
		return
	}
	g, ok := tm.gauges[name]
	if !ok {
		sc := tm.sc.Scope("tenant").Scope(name)
		g = tenantGauges{
			vfs: sc.Gauge("vfs"), cores: sc.Gauge("cores"),
			sqs: sc.Gauge("sqs"), rqs: sc.Gauge("rqs"), cqs: sc.Gauge("cqs"),
			weight: sc.Gauge("weight"), rateMbps: sc.Gauge("rate_mbps"),
		}
		tm.gauges[name] = g
	}
	g.vfs.Set(int64(s.VFs))
	g.cores.Set(int64(s.Cores))
	g.sqs.Set(int64(s.SQs))
	g.rqs.Set(int64(s.RQs))
	g.cqs.Set(int64(s.CQs))
	g.weight.Set(int64(s.Weight))
	g.rateMbps.Set(int64(s.RateGbps * 1000))
}

// --- Cluster facade ---

// ManageTenants puts an Innova node under control-plane management,
// returning its TenantManager. Specs applied through Cluster.Apply
// reach every managed node.
func (c *Cluster) ManageTenants(inn *Innova, seed int64) *TenantManager {
	tm := NewTenantManager(inn, seed)
	c.tms = append(c.tms, tm)
	return tm
}

// Apply publishes a desired-state spec to every managed node. Call it
// before Run or from a Cluster.Control callback, so every reconciler
// opens its episode at a synchronized instant.
func (c *Cluster) Apply(spec TenancySpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, tm := range c.tms {
		if err := tm.Apply(spec); err != nil {
			return err
		}
	}
	return nil
}
