package flexdriver

import (
	"fmt"
	"testing"
)

func tenancyTestSpec() TenancySpec {
	return TenancySpec{Version: 1, Tenants: []TenantSpec{
		{Name: "alpha", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 2, RateGbps: 10},
		{Name: "beta", VFs: 2, Cores: 2, SQs: 2, RQs: 1, CQs: 2, Weight: 1},
	}}
}

func TestTenantManagerConverges(t *testing.T) {
	reg := NewRegistry()
	inn := NewLocalInnova(WithTelemetry(reg))
	tm := NewTenantManager(inn, 7)
	if err := tm.Apply(tenancyTestSpec()); err != nil {
		t.Fatal(err)
	}
	inn.Run()
	if !tm.Reconciler().Converged() {
		t.Fatal("node did not converge")
	}
	if got := len(tm.VFs("alpha")); got != 1 {
		t.Fatalf("alpha has %d VFs, want 1", got)
	}
	if got := len(tm.Runtimes("beta")); got != 2 {
		t.Fatalf("beta has %d runtimes, want 2", got)
	}
	// beta's two runtimes round-robin across its two VFs.
	rts := tm.Runtimes("beta")
	// Each VF owns one vport, so distinct vports are distinct VFs.
	if rts[0].VPort() == rts[1].VPort() {
		t.Fatal("beta's runtimes share a VF; want round-robin placement")
	}
	// The record Observed reports agrees with the actuation.
	if got := len(tm.Cores("beta")); got != 2 || tm.Observed()["beta"].Cores != 2 {
		t.Fatalf("beta holds %d cores and is observed with %d, want 2",
			got, tm.Observed()["beta"].Cores)
	}
	// Actuated shapes are mirrored into the telemetry tree.
	snap := reg.Snapshot()
	if v := snap.Gauges["innova/ctrlplane/tenant/alpha/cores"].Value; v != 1 {
		t.Fatalf("alpha cores gauge = %d, want 1", v)
	}
	if v := snap.Gauges["innova/ctrlplane/tenant/beta/vfs"].Value; v != 2 {
		t.Fatalf("beta vfs gauge = %d, want 2", v)
	}
	if v := snap.Gauges["innova/ctrlplane/tenant/alpha/rate_mbps"].Value; v != 10000 {
		t.Fatalf("alpha rate gauge = %d, want 10000", v)
	}
	// A function-level reset is scoped to the function: alpha's VF counts
	// it, beta's two do not, and alpha's queues come back Ready.
	alpha := tm.VFs("alpha")[0]
	alpha.FLR()
	inn.Run()
	snap = reg.Snapshot()
	for _, vf := range append(tm.VFs("beta"), alpha) {
		want := int64(0)
		if vf == alpha {
			want = 1
		}
		if got := snap.Get(fmt.Sprintf("innova/nic/vf%d/flrs", vf.ID)); got != want {
			t.Errorf("vf%d/flrs = %d, want %d", vf.ID, got, want)
		}
	}
	if !tm.Runtimes("alpha")[0].QueuesReady() {
		t.Error("alpha's queues are not Ready after its function-level reset")
	}
}

func TestTenantManagerLiveReshapeAndRemove(t *testing.T) {
	inn := NewLocalInnova()
	tm := NewTenantManager(inn, 7)
	if err := tm.Apply(tenancyTestSpec()); err != nil {
		t.Fatal(err)
	}
	inn.Run()
	alphaVF := tm.VFs("alpha")[0]
	betaCores := tm.Cores("beta")

	// v2: bandwidth-only change for alpha (re-slices the live VF, same
	// queues), structural shrink for beta (rebuild on fresh VFs).
	s := tenancyTestSpec()
	s.Version = 2
	s.Tenants[0].Weight = 5
	s.Tenants[0].RateGbps = 4
	s.Tenants[1].Cores = 1
	s.Tenants[1].VFs = 1
	if err := tm.Apply(s); err != nil {
		t.Fatal(err)
	}
	inn.Run()
	if !tm.Reconciler().Converged() {
		t.Fatal("did not converge after reshape")
	}
	if tm.VFs("alpha")[0] != alphaVF {
		t.Fatal("bandwidth-only change rebuilt alpha's VF")
	}
	if alphaVF.Weight() != 5 {
		t.Fatalf("alpha VF weight = %d, want 5", alphaVF.Weight())
	}
	if got := len(tm.Cores("beta")); got != 1 {
		t.Fatalf("beta has %d cores after shrink, want 1", got)
	}

	// v3: remove beta entirely; its core returns to the free pool and is
	// reused when a new tenant arrives.
	s2 := TenancySpec{Version: 3, Tenants: []TenantSpec{s.Tenants[0]}}
	if err := tm.Apply(s2); err != nil {
		t.Fatal(err)
	}
	inn.Run()
	if tm.Runtimes("beta") != nil {
		t.Fatal("beta still actuated after removal")
	}
	if got := len(tm.Observed()); got != 1 || tm.Cores("beta") != nil {
		t.Fatalf("%d tenants observed after beta's removal, want 1", got)
	}

	s3 := s2
	s3.Version = 4
	s3.Tenants = append(append([]TenantSpec(nil), s2.Tenants...),
		TenantSpec{Name: "gamma", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1})
	if err := tm.Apply(s3); err != nil {
		t.Fatal(err)
	}
	inn.Run()
	if !tm.Reconciler().Converged() {
		t.Fatal("did not converge after gamma")
	}
	reused := false
	for _, f := range betaCores {
		if len(tm.Cores("gamma")) == 1 && tm.Cores("gamma")[0] == f {
			reused = true
		}
	}
	if !reused {
		t.Fatal("gamma did not reuse a released core")
	}
	if n := len(inn.flds); n != 4 {
		// 1 PF core + alpha's 1 + beta's peak of 2; gamma reuses.
		t.Fatalf("node carries %d FLD cores, want 4", n)
	}
}

func TestTenantManagerInfeasibleSpecAbandons(t *testing.T) {
	reg := NewRegistry()
	inn := NewLocalInnova(WithTelemetry(reg))
	tm := NewTenantManager(inn, 7)
	// One core needs two CQs on its VF; a 1-CQ quota can never actuate.
	bad := TenancySpec{Version: 1, Tenants: []TenantSpec{
		{Name: "cramped", VFs: 1, Cores: 1, SQs: 1, RQs: 1, CQs: 1, Weight: 1},
	}}
	if err := tm.Apply(bad); err != nil {
		t.Fatal(err)
	}
	inn.Run()
	if tm.Reconciler().Converged() {
		t.Fatal("converged on an infeasible spec?")
	}
	snap := reg.Snapshot()
	if snap.Get("innova/ctrlplane/abandoned") != 1 {
		t.Fatal("infeasible episode not abandoned")
	}
	if snap.Get("innova/ctrlplane/actuator_errors") == 0 {
		t.Fatal("quota denials not surfaced as actuator errors")
	}
}

func TestClusterApplyReachesEveryManagedNode(t *testing.T) {
	c := NewCluster()
	a := c.AddInnova("a")
	b := c.AddInnova("b")
	tma := c.ManageTenants(a, 1)
	tmb := c.ManageTenants(b, 2)
	spec := tenancyTestSpec()
	if err := c.Apply(spec); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if !tma.Reconciler().Converged() || !tmb.Reconciler().Converged() {
		t.Fatal("managed nodes did not all converge")
	}
	spec.Version = 2
	spec.Tenants = append(spec.Tenants, TenantSpec{Name: "gamma", VFs: 1, SQs: 1, RQs: 1, CQs: 1, Weight: 1})
	if err := c.Apply(spec); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if v := tmb.Reconciler().Version(); v != 2 {
		t.Fatalf("node b converges toward version %d, want 2", v)
	}
	if len(tmb.VFs("gamma")) != 1 {
		t.Fatal("version 2 did not reach node b")
	}
}

// TestFailedReshapeDoesNotWedge: a structural reshape that cannot
// actuate tears the tenant down and its episode is abandoned; a later
// spec that restores the tenant, or drops it, still converges.
func TestFailedReshapeDoesNotWedge(t *testing.T) {
	alpha := TenantSpec{Name: "alpha", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1}
	cramped := alpha
	cramped.CQs = 1 // one core needs two CQs on its VF
	for _, v3 := range [][]TenantSpec{{alpha}, nil} {
		reg := NewRegistry()
		inn := NewLocalInnova(WithTelemetry(reg))
		tm := NewTenantManager(inn, 7)
		for i, tenants := range [][]TenantSpec{{alpha}, {cramped}, v3} {
			if err := tm.Apply(TenancySpec{Version: i + 1, Tenants: tenants}); err != nil {
				t.Fatal(err)
			}
			inn.Run()
		}
		if got := reg.Snapshot().Get("innova/ctrlplane/abandoned"); got != 1 {
			t.Errorf("v3 with %d tenants: %d episodes abandoned, want 1 (v2's)", len(v3), got)
		}
		if !tm.Reconciler().Converged() {
			t.Errorf("v3 with %d tenants: did not converge after the failed reshape", len(v3))
		}
		if got, want := len(inn.NIC.VFs()), len(v3); got != want {
			t.Errorf("v3 with %d tenants: %d VFs live, want %d", len(v3), got, want)
		}
	}
}

// TestFailedRebuildZeroesGauges: a structural reshape that cannot actuate
// tears the tenant down, and its gauges follow the record to zero.
func TestFailedRebuildZeroesGauges(t *testing.T) {
	reg := NewRegistry()
	inn := NewLocalInnova(WithTelemetry(reg))
	tm := NewTenantManager(inn, 7)
	alpha := TenantSpec{Name: "alpha", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1}
	cramped := alpha
	cramped.CQs = 1
	for i, ts := range []TenantSpec{alpha, cramped} {
		if err := tm.Apply(TenancySpec{Version: i + 1, Tenants: []TenantSpec{ts}}); err != nil {
			t.Fatal(err)
		}
		inn.Run()
	}
	if n := len(tm.Observed()); n != 0 {
		t.Fatalf("%d tenants observed after the failed rebuild, want 0", n)
	}
	snap := reg.Snapshot()
	for _, g := range []string{"vfs", "cores", "sqs", "rqs", "cqs", "weight"} {
		if v := snap.Gauges["innova/ctrlplane/tenant/alpha/"+g].Value; v != 0 {
			t.Errorf("alpha %s gauge = %d after the failed rebuild, want 0", g, v)
		}
	}
}
