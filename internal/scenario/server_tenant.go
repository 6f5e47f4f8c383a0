package scenario

import (
	"encoding/binary"
	"fmt"

	"flexdriver"
	"flexdriver/internal/rig"
)

// tenantBasePort numbers tenant T<i>'s service port tenantBasePort+i.
// Clients bind to tenants round-robin and every reply's source port
// must name the client's own tenant.
const tenantBasePort = 7801

// tenantServer is the managed-mode counterpart of the flat data path: the
// server's FLD cores and NIC queues are carved into per-tenant VF slices
// by the tenancy control plane, each tenant's core runs the echo, and —
// with Reconfig — a version-2 spec reshapes every tenant mid-window.
type tenantServer struct {
	t      *rig.Tenants
	echoes []*rig.Echo
}

func (p *tenantServer) nic() *flexdriver.NIC { return p.t.NIC }

// framing binds client gi to a tenant round-robin and addresses it by
// destination port; every reply's source port must then name that same
// tenant, or the reply leaked across an isolation domain.
func (p *tenantServer) framing(gi int) framing {
	fr := protos[""].framing
	fr.dport = p.t.Ports[gi%len(p.t.Ports)]
	fr.screen = func(c *echoClient, reply []byte) bool {
		if binary.BigEndian.Uint16(reply[34:]) != fr.dport {
			c.leaks++
		}
		return true
	}
	return fr
}

// desired builds the version-v desired state: one single-core VF slice
// per tenant, quotas sized to the runtime's fixed footprint (2 CQs + the
// RQ) plus the one echo tx queue. Version 1 alternates DRR weights 1/2
// across tenants; version 2 flips them — a bandwidth-only reshape the
// reconciler still applies through a live drain → reconfigure → undrain
// episode per tenant.
func (p *tenantServer) desired(version int) flexdriver.TenancySpec {
	spec := flexdriver.TenancySpec{Version: version}
	for i, name := range p.t.Names {
		w := 1 + i%2
		if version >= 2 {
			w = 2 - i%2
		}
		spec.Tenants = append(spec.Tenants, flexdriver.TenantSpec{
			Name: name, VFs: 1, Cores: 1, SQs: 1, RQs: 1, CQs: 2, Weight: w})
	}
	return spec
}

func (p *tenantServer) apply(rn *run, version int) {
	if err := rn.Apply(p.desired(version)); err != nil {
		panic(err)
	}
}

func (p *tenantServer) build(rn *run) {
	s := rn.spec
	var names []string
	var ports []uint16
	for i := 0; i < s.Tenants; i++ {
		names = append(names, fmt.Sprintf("T%d", i))
		ports = append(ports, tenantBasePort+uint16(i))
	}
	var t0Echoed int64
	p.t = rn.ManageTenants("server", s.Seed, names, ports, func(tenant string, f *flexdriver.FLD) {
		e := rig.InstallEcho(f)
		p.echoes = append(p.echoes, e)
		if s.PlantLeakNth > 0 && tenant == names[0] {
			// The planted defect: tenant 0's pipeline claims tenant 1's
			// identity on the wire — the isolation violation the
			// tenant-leak invariant must catch.
			e.Rewrite = func(reply []byte) {
				if t0Echoed++; t0Echoed%s.PlantLeakNth == 0 {
					binary.BigEndian.PutUint16(reply[34:], ports[1])
				}
			}
		}
	})
	p.apply(rn, 1)
}

// start lands spec v2 (flipped DRR weights) mid-window as a cluster-wide
// barrier action, so the reconciler drains and reshapes every tenant
// while traffic and the fault plan are live.
func (p *tenantServer) start(rn *run) {
	if rn.spec.Reconfig {
		rn.Control(warmup+(rn.stop-warmup)/2, func() { p.apply(rn, 2) })
	}
}

func (p *tenantServer) sweep() { p.t.Kick() }

func (p *tenantServer) gather(_ *run, j *judgement) {
	var echoFails int64
	for _, e := range p.echoes {
		echoFails += e.SendFails
	}
	j.excuse("echo-fail", echoFails)
	// Tenant drains may heal a silently lost posting by replaying the
	// FLD's descriptor window (fldsw.NudgeTx): at-least-once delivery,
	// one window per drain episode.
	j.dupBudget += 512 * j.snap.Get("server/ctrlplane/drains")
}

// check judges multi-tenant isolation and convergence. Leakage is
// zero-tolerance: no fault class, drain race or steering rewrite excuses
// a reply carrying a foreign tenant's identity (the PlantLeakNth hook
// manufactures exactly such a reply). The reconciler must also have
// converged on the final spec version — v2 if the scenario reconfigured
// mid-window — without abandoning an episode, with every queue Ready.
func (p *tenantServer) check(rn *run, j *judgement) {
	var leaks int64
	for _, c := range rn.clients.cs {
		leaks += c.leaks
	}
	if leaks > 0 {
		j.bad("tenant-leak", "%d replies delivered with a foreign tenant's source port", leaks)
	}
	rec := p.t.TM.Reconciler()
	wantV := 1
	if rn.spec.Reconfig {
		wantV = 2
	}
	if !rec.Converged() || rec.Version() != wantV {
		j.bad("tenancy-converged", "reconciler at version %d (converged=%v), want version %d",
			rec.Version(), rec.Converged(), wantV)
	}
	if n := j.snap.Get("server/ctrlplane/abandoned"); n > 0 {
		j.bad("tenancy-converged", "%d reconcile episodes abandoned", n)
	}
	if !p.t.RT.QueuesReady() {
		j.bad("queues-recovered", "server PF runtime has queues not in Ready")
	}
	p.t.EachRuntime(func(tenant string, i int, rt *flexdriver.Runtime) {
		if !rt.QueuesReady() {
			j.bad("queues-recovered", "tenant %s runtime %d has queues not in Ready", tenant, i)
		}
	})
}
