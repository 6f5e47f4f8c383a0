package flexdriver

import (
	"slices"
	"testing"

	"flexdriver/internal/ctrlplane"
)

// oracleNames are the tenants a FuzzTenancyReconcile program can name.
var oracleNames = [...]string{"a", "b", "c"}

// watchedActuator is the TenantManager with one check on its way in: a
// tenant that is running gets new runtimes only while Draining reports
// it drained of new work.
type watchedActuator struct {
	*TenantManager
	t *testing.T
}

func (w watchedActuator) Reconfigure(name string, spec TenantSpec) error {
	_, running := w.Observed()[name]
	before, draining := w.Runtimes(name), w.Draining(name)
	err := w.TenantManager.Reconfigure(name, spec)
	if running && !draining && !slices.Equal(before, w.Runtimes(name)) {
		w.t.Errorf("tenant %s got new runtimes while not draining", name)
	}
	return err
}

// FuzzTenancyReconcile runs a byte program of tenancy specs on one
// managed Innova. Two bytes make an operation: onboard or structurally
// reshape a tenant, requota or reweight it (bandwidth only), remove it,
// give it a quota no runtime fits in (one CQ where a core needs two),
// destroy one of its VFs behind the manager's back, or apply the spec
// built so far as the next version and run the node to quiescence.
// After every run:
//
//   - the episode has closed, converged or abandoned (the ladder gives up
//     after 256 attempts), and a converged node runs exactly the spec;
//   - every FLD core the node built is the PF's, one tenant's, or free,
//     and no core is two of these;
//   - the NIC's live VFs are exactly the observed tenants' VFs, less the
//     ones the program destroyed;
//   - a running tenant got new runtimes only while draining (checked as
//     the reconciler calls Reconfigure);
//   - the tenant gauges under innova/ctrlplane/tenant/ read what
//     Observed reports, and zero for a tenant it does not;
//   - a spec every tenant fits in converges, whatever failed before it,
//     unless the spec reshapes or removes a running tenant that lost a VF
//     to the program: its queues are gone, so its drain never completes.
//     A spec that leaves such a tenant alone converges.
func FuzzTenancyReconcile(f *testing.F) {
	// Bytes: op, then arg — tenant arg%3, the shape from arg/3.
	f.Add([]byte{0, 6, 0, 16, 5, 0, 1, 21, 0, 1, 5, 0, 4, 0, 5, 0, 2, 1, 5, 0})
	f.Add([]byte{0, 12, 0, 28, 0, 2, 5, 0, 2, 0, 2, 1, 2, 2, 5, 0})
	f.Add([]byte{0, 6, 5, 0, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		reg := NewRegistry()
		inn := NewLocalInnova(WithTelemetry(reg))
		tm := NewTenantManager(inn, 1)
		tm.rec = ctrlplane.NewReconciler(inn.eng, watchedActuator{tm, t}, 1)
		tm.rec.SetTelemetry(tm.sc)
		abandoned := reg.Counter("innova/ctrlplane/abandoned")

		spec := map[string]TenantSpec{}
		destroyed := map[*VF]bool{}
		version := 0
		apply := func() {
			version++
			s := TenancySpec{Version: version}
			for _, name := range oracleNames {
				if ts, ok := spec[name]; ok {
					s.Tenants = append(s.Tenants, ts)
				}
			}
			before := abandoned.Value()
			if err := tm.Apply(s); err != nil {
				t.Fatalf("v%d: %v", version, err)
			}
			inn.Run()
			checkTenancy(t, tm, s, destroyed)
			converged := tm.rec.Converged()
			if tm.rec.Active() || !converged && abandoned.Value() == before {
				t.Fatalf("v%d: episode neither converged nor abandoned (active %v)",
					version, tm.rec.Active())
			}
			fits := true
			for _, ts := range s.Tenants {
				fits = fits && (ts.Cores == 0 || ts.CQs > 1)
			}
			desired := map[string]TenantSpec{}
			for _, ts := range s.Tenants {
				desired[ts.Name] = ts
			}
			for name, o := range tm.Observed() {
				if desired[name] == o {
					continue // left alone: an abandoned drain of it closes
				}
				for _, vf := range tm.VFs(name) {
					fits = fits && !destroyed[vf]
				}
			}
			if fits && !converged {
				t.Fatalf("v%d: a spec every tenant fits in did not converge", version)
			}
		}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			arg := prog[pc+1]
			name := oracleNames[arg%3]
			ts, running := spec[name]
			arg /= 3
			switch prog[pc] % 6 {
			case 0: // onboard, or reshape structurally
				vfs := 1 + int(arg&1)
				ts = TenantSpec{Name: name, VFs: vfs, Cores: int(arg>>1) % (2*vfs + 1),
					SQs: 1 + int(arg>>3&1), RQs: 2, CQs: 4 + int(arg>>4&1), Weight: max(ts.Weight, 1)}
			case 1: // reweight and re-rate: the bandwidth-only path
				if !running {
					continue
				}
				ts.Weight, ts.RateGbps = int(arg&3), float64(arg>>2&3)*2.5
			case 2: // remove
				delete(spec, name)
				continue
			case 3: // a quota no runtime fits in
				if ts.Cores == 0 {
					ts = TenantSpec{Name: name, VFs: 1, Cores: 1, SQs: 1, RQs: 1, Weight: 1}
				}
				ts.CQs = 1
			case 4: // destroy one of a running tenant's VFs
				if vfs := tm.VFs(name); len(vfs) > 0 {
					vf := vfs[int(arg)%len(vfs)]
					inn.NIC.DestroyVF(vf)
					destroyed[vf] = true
				}
				continue
			case 5:
				apply()
				continue
			}
			spec[name] = ts
		}
		apply()
	})
}

// checkTenancy holds the node to the ledger properties FuzzTenancyReconcile
// asserts after every run.
func checkTenancy(t *testing.T, tm *TenantManager, s TenancySpec, destroyed map[*VF]bool) {
	t.Helper()
	obs := tm.Observed()
	if tm.rec.Converged() {
		if len(obs) != len(s.Tenants) {
			t.Fatalf("v%d: converged running %d tenants, spec has %d", s.Version, len(obs), len(s.Tenants))
		}
		for _, ts := range s.Tenants {
			o, ok := obs[ts.Name]
			if !ok || o != ts {
				t.Fatalf("v%d: converged with %s as %+v, spec %+v", s.Version, ts.Name, o, ts)
			}
		}
	}

	// One record of each core: the PF's, a tenant's, or free.
	owner := map[*FLD]string{tm.inn.FLD: "the PF"}
	hold := func(f *FLD, who string) {
		if prev, ok := owner[f]; ok {
			t.Fatalf("v%d: core %s held by %s and %s", s.Version, f.PCIeName(), prev, who)
		}
		owner[f] = who
	}
	for _, name := range oracleNames {
		for _, f := range tm.Cores(name) {
			hold(f, "tenant "+name)
		}
		if _, ok := obs[name]; !ok && tm.Cores(name) != nil {
			t.Fatalf("v%d: tenant %s holds cores but is not observed", s.Version, name)
		}
	}
	for _, f := range tm.free {
		hold(f, "the free list")
	}
	if len(owner) != len(tm.inn.flds) {
		t.Fatalf("v%d: %d cores built, %d accounted for", s.Version, len(tm.inn.flds), len(owner))
	}
	for _, f := range tm.inn.flds {
		if _, ok := owner[f]; !ok {
			t.Fatalf("v%d: core %s is nobody's and not free", s.Version, f.PCIeName())
		}
	}

	// The tree shows what Observed reports.
	for name := range obs {
		if _, ok := tm.gauges[name]; !ok {
			t.Fatalf("v%d: tenant %s runs without gauges", s.Version, name)
		}
	}
	for name, g := range tm.gauges {
		o := obs[name]
		shown := [...]int64{g.vfs.Value(), g.cores.Value(), g.sqs.Value(), g.rqs.Value(),
			g.cqs.Value(), g.weight.Value(), g.rateMbps.Value()}
		if shown != [...]int64{int64(o.VFs), int64(o.Cores), int64(o.SQs), int64(o.RQs),
			int64(o.CQs), int64(o.Weight), int64(o.RateGbps * 1000)} {
			t.Fatalf("v%d: tenant %s gauges read %v, Observed %+v", s.Version, name, shown, o)
		}
	}

	// The NIC's live VFs are the tenants' VFs the program left alone.
	want := map[*VF]string{}
	for name := range obs {
		for _, vf := range tm.VFs(name) {
			if !destroyed[vf] {
				want[vf] = name
			}
		}
	}
	live := tm.inn.NIC.VFs()
	for _, vf := range live {
		if _, ok := want[vf]; !ok {
			t.Fatalf("v%d: vf%d is live but no running tenant holds it", s.Version, vf.ID)
		}
	}
	if len(live) != len(want) {
		t.Fatalf("v%d: %d live VFs, the tenants hold %d", s.Version, len(live), len(want))
	}
}
