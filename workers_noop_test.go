package flexdriver_test

import (
	"fmt"
	"runtime"
	"testing"

	"flexdriver"
	"flexdriver/internal/rig"
	"flexdriver/internal/scenario"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// echo16 runs 16 clients against a 4-core echo server behind the ToR
// switch — every frame crossing four switch-port conduits — and returns
// the telemetry hash, the replies seen and how many goroutines were alive
// inside the run beyond the caller's count before it. setup, when set,
// runs on the empty rig.
func echo16(setup func(*rig.Rig), opts ...flexdriver.Option) (hash string, replies, extra int) {
	before := runtime.NumGoroutine()
	r := rig.New(opts...)
	if setup != nil {
		setup(r)
	}
	srv := r.AddServer("server", 4, func(f *flexdriver.FLD) { rig.InstallEcho(f) })
	srv.Steer(flexdriver.Rule{})
	for i := 0; i < 16; i++ {
		c := r.AddClient(fmt.Sprintf("client%d", i), 42)
		c.Flows = [][]byte{rig.UDPFrame(c.Host.NIC, srv.NIC, uint16(4000+i), 7777, 256)}
		c.Port.OnReceive = func([]byte, swdriver.RxMeta) { replies++ }
		rig.OpenLoop(c.Host.Engine(), sim.Duration(i)*100*sim.Nanosecond, 40*sim.Microsecond,
			1, rig.Every(2*sim.Microsecond), c.Send)
	}
	// Sampled at a barrier mid-run: a pool would be parked right here.
	r.Control(20*sim.Microsecond, func() { extra = runtime.NumGoroutine() - before })
	r.Run()
	return r.Telemetry().Snapshot().Hash(), replies, extra
}

// TestWorkersKnobsAreNoOps holds the names kept for bench/ to what their
// Deprecated lines say: any worker count, colocation or lookahead gives
// the default run's telemetry and starts no goroutine. Each goroutine
// comparison is one-sided: a started pool can only raise the count, while
// a goroutine of another test that exits mid-run lowers it.
func TestWorkersKnobsAreNoOps(t *testing.T) {
	ref, replies, extra := echo16(nil)
	if replies == 0 || extra > 0 {
		t.Fatalf("default run: %d replies, %d extra goroutines", replies, extra)
	}
	for _, v := range []struct {
		name  string
		setup func(*rig.Rig)
		opts  []flexdriver.Option
	}{
		{"WithWorkers(8)", nil, []flexdriver.Option{flexdriver.WithWorkers(8)}},
		{"WithColocated(true)", nil, []flexdriver.Option{flexdriver.WithColocated(true)}},
		{"SetLookahead(0)", func(r *rig.Rig) { r.Group().SetLookahead(0) }, nil},
	} {
		if hash, _, extra := echo16(v.setup, v.opts...); hash != ref || extra > 0 {
			t.Errorf("%s: hash %.12s… vs default %.12s…, %d extra goroutines", v.name, hash, ref, extra)
		}
	}

	before := runtime.NumGoroutine()
	s := scenario.Generate(2)
	want := scenario.Run(s).Hash
	s.Workers = 8
	if got := scenario.Run(s).Hash; got != want || runtime.NumGoroutine() > before {
		t.Errorf("Spec.Workers=8: hash %.12s… vs default %.12s…, goroutines %d -> %d",
			got, want, before, runtime.NumGoroutine())
	}

	g := sim.NewGroup()
	g.SetWorkers(8)
	during := 0
	g.NewEngine().After(sim.Microsecond, func() { during = runtime.NumGoroutine() })
	g.Run()
	if during > before {
		t.Errorf("SetWorkers(8): goroutines %d -> %d inside a run", before, during)
	}
}
