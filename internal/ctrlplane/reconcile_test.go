package ctrlplane

import (
	"fmt"
	"testing"

	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// fakeActuator is an in-memory node: tenants exist as the Tenant
// entries last reconfigured, draining takes a configurable number of Drain calls, and
// every mutation is journaled for order assertions.
type fakeActuator struct {
	state      map[string]Tenant
	drainCalls map[string]int
	drainAfter int // Drain returns true after this many calls per tenant
	failReconf bool
	journal    []string
}

func newFakeActuator() *fakeActuator {
	return &fakeActuator{
		state:      make(map[string]Tenant),
		drainCalls: make(map[string]int),
		drainAfter: 2,
	}
}

func (a *fakeActuator) Observed() map[string]Tenant {
	out := make(map[string]Tenant, len(a.state))
	for k, v := range a.state {
		out[k] = v
	}
	return out
}

func (a *fakeActuator) Drain(name string) bool {
	a.drainCalls[name]++
	done := a.drainCalls[name] >= a.drainAfter
	if done {
		a.journal = append(a.journal, "drained:"+name)
	}
	return done
}

func (a *fakeActuator) Reconfigure(name string, t Tenant) error {
	if a.failReconf {
		return fmt.Errorf("injected reconfigure failure")
	}
	a.journal = append(a.journal, "reconfigure:"+name)
	a.state[name] = t
	return nil
}

func (a *fakeActuator) Undrain(name string) {
	a.journal = append(a.journal, "undrain:"+name)
	a.drainCalls[name] = 0
}

func (a *fakeActuator) Remove(name string) error {
	a.journal = append(a.journal, "remove:"+name)
	delete(a.state, name)
	return nil
}

func testRig() (*sim.Engine, *fakeActuator, *Reconciler, *telemetry.Registry) {
	eng := sim.NewEngine()
	act := newFakeActuator()
	rec := NewReconciler(eng, act, 42)
	reg := telemetry.New()
	rec.SetTelemetry(reg.Scope("node").Scope("ctrlplane"))
	return eng, act, rec, reg
}

func TestReconcilerConvergesFromEmpty(t *testing.T) {
	eng, act, rec, _ := testRig()
	if err := rec.Apply(specAB()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !rec.Converged() {
		t.Fatal("reconciler did not converge")
	}
	if rec.Active() {
		t.Fatal("episode still open after convergence")
	}
	if len(act.state) != 2 {
		t.Fatalf("actuated %d tenants, want 2", len(act.state))
	}
	if got := act.state["A"]; got.Cores != 2 || got.Weight != 3 || got.RateGbps != 10 {
		t.Fatalf("tenant A actuated wrong: %+v", got)
	}
}

func TestReconcilerDrainsBeforeReshape(t *testing.T) {
	eng, act, rec, reg := testRig()
	if err := rec.Apply(specAB()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	act.journal = nil

	// v4: shrink B's quota — a live reshape that must drain first.
	s := specAB()
	s.Version = 4
	s.Tenants[1].SQs = 1
	if err := rec.Apply(s); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !rec.Converged() {
		t.Fatal("reconciler did not converge after reshape")
	}
	want := []string{"drained:B", "reconfigure:B", "undrain:B"}
	if len(act.journal) != len(want) {
		t.Fatalf("journal %v, want %v", act.journal, want)
	}
	for i := range want {
		if act.journal[i] != want[i] {
			t.Fatalf("journal %v, want %v", act.journal, want)
		}
	}
	snap := reg.Snapshot()
	if snap.Get("node/ctrlplane/drains") == 0 {
		t.Fatal("drain not counted in telemetry")
	}
	if snap.Gauges["node/ctrlplane/drain_max"].High <= 0 {
		t.Fatal("drain_max gauge not recorded")
	}
}

func TestReconcilerRemovesUndesiredTenant(t *testing.T) {
	eng, act, rec, _ := testRig()
	if err := rec.Apply(specAB()); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	s := Spec{Version: 9, Tenants: []Tenant{specAB().Tenants[0]}} // drop B
	if err := rec.Apply(s); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !rec.Converged() {
		t.Fatal("did not converge after removal")
	}
	if _, ok := act.state["B"]; ok {
		t.Fatal("tenant B still running")
	}
	// Removal must have been drained first.
	sawDrain := false
	for _, j := range act.journal {
		if j == "drained:B" {
			sawDrain = true
		}
		if j == "remove:B" && !sawDrain {
			t.Fatal("removed B without draining it")
		}
	}
}

func TestReconcilerRejectsStaleVersion(t *testing.T) {
	eng, _, rec, reg := testRig()
	if err := rec.Apply(specAB()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	stale := specAB() // same version again
	if err := rec.Apply(stale); err == nil {
		t.Fatal("stale version accepted")
	}
	if reg.Snapshot().Get("node/ctrlplane/applies_rejected") != 1 {
		t.Fatal("rejected apply not counted")
	}
}

func TestReconcilerAbandonsWedgedConvergence(t *testing.T) {
	eng, act, rec, reg := testRig()
	act.failReconf = true // actuator can never satisfy the spec
	if err := rec.Apply(specAB()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if rec.Converged() {
		t.Fatal("converged against a failing actuator?")
	}
	if rec.Active() {
		t.Fatal("episode still open: abandoned convergence must not wedge the engine")
	}
	snap := reg.Snapshot()
	if snap.Get("node/ctrlplane/abandoned") != 1 {
		t.Fatal("abandoned episode not counted")
	}
	if snap.Get("node/ctrlplane/actuator_errors") == 0 {
		t.Fatal("actuator errors not counted")
	}

	// A fixed actuator plus a watchdog Kick resumes convergence.
	act.failReconf = false
	rec.Kick()
	eng.Run()
	if !rec.Converged() {
		t.Fatal("did not converge after the actuator healed")
	}
}

func TestReconcilerKickIsCheapWhenConverged(t *testing.T) {
	eng, _, rec, _ := testRig()
	if err := rec.Apply(specAB()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	rec.Kick()
	if rec.Active() {
		t.Fatal("Kick opened an episode on a converged node")
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("converged Kick scheduled %d events", n)
	}
}

func TestReconcilerDeterministicSchedule(t *testing.T) {
	run := func() []string {
		eng, act, rec, _ := testRig()
		_ = rec.Apply(specAB())
		eng.Run()
		s := specAB()
		s.Version = 4
		s.Tenants[0].Weight = 7
		s.Tenants[1].SQs = 1
		_ = rec.Apply(s)
		eng.Run()
		return act.journal
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// TestAbandonedDrainClosesWhenShapeRestored: a reshape whose drain never
// quiesces is abandoned with the tenant drained; a later spec that asks
// for the shape the tenant still has leaves nothing to reconfigure, and
// the reconciler must undrain the tenant and converge rather than hold
// the drain open for good.
func TestAbandonedDrainClosesWhenShapeRestored(t *testing.T) {
	eng, act, rec, reg := testRig()
	alpha := Tenant{Name: "alpha", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1}
	if err := rec.Apply(Spec{Version: 1, Tenants: []Tenant{alpha}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	act.drainAfter = 1 << 30 // alpha's in-flight work never quiesces
	wider := alpha
	wider.CQs = 4
	if err := rec.Apply(Spec{Version: 2, Tenants: []Tenant{wider}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := reg.Snapshot().Get("node/ctrlplane/abandoned"); got != 1 || rec.Converged() {
		t.Fatalf("v2: %d episodes abandoned, converged %v; want the reshape abandoned", got, rec.Converged())
	}

	act.journal = nil
	if err := rec.Apply(Spec{Version: 3, Tenants: []Tenant{alpha}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !rec.Converged() || rec.Active() {
		t.Fatalf("v3 restores alpha's running shape: converged %v, active %v; want converged", rec.Converged(), rec.Active())
	}
	if len(act.journal) != 1 || act.journal[0] != "undrain:alpha" {
		t.Fatalf("v3 journal %v, want alpha undrained and nothing else", act.journal)
	}
}
