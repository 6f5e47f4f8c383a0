package flexdriver

import (
	"runtime"
	"testing"

	"flexdriver/internal/accel/echo"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// TestEventsPerEcho pins the simulator's cost of one 64 B echo in the unit
// that does not depend on the machine: engine events dispatched per echo on
// the remote pair (client host cabled to an Innova server, FLD-E echo AFU,
// open-loop Poisson from a fixed seed at 25 Mpps, 80 % of the perfmodel
// bound — the shape of the benchmark's echo64_pair workload). The figure is
// Engine.Dispatched over echoes, nothing subtracted: it includes the
// generator's one send event per frame, as the table in DESIGN.md does.
// With every serialize→propagate pair one event — the FLD transmit pipe's
// included, since the tie order stopped depending on window bounds — and
// PCIe completion timeouts scheduled only where they can fire, an echo
// costs 36.5 events (63.6 before that rule); the bound leaves room for
// doorbell- and fetch-batching jitter, not for a stage that only waits to
// become an event again. A fault-free run must also leave nothing on
// the heap once the last echo is home — well inside the 20 µs a completion
// timeout used to linger: a settled read arms none.
//
// The same run prices the echo for the host allocator, past a warm-up that
// touches every ring slot: 0.01 allocations (2.0 while the two raw-Ethernet
// frames, one each way, were allocated; 5.5 while every DMA read and
// receive copy-out made its own buffer, 8.0 while the NIC's descriptor
// fetches and payload gather each cost a closure) — see the echo ledger in
// DESIGN.md. The bound leaves room for a run's stray allocation, not for
// a frame per echo.
func TestEventsPerEcho(t *testing.T) {
	const (
		size      = 64
		mean      = 40 * sim.Nanosecond
		warm      = 60 * sim.Microsecond
		stop      = 300 * sim.Microsecond
		maxPer    = 37.0
		maxAllocs = 0.1
	)
	rp := NewRemotePair(WithDriver(genDriver))
	srv := rp.Server
	srv.RT.StartEth()
	echo.New(srv.FLD)

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})

	frame := clusterUDPFrame(rp.Client.NIC, srv.NIC, 4000, 7777, size)

	var sent, echoed int
	port.OnReceive = func([]byte, swdriver.RxMeta) { echoed++ }
	eng, rng := rp.Engine(), sim.NewRand(1)
	var tick func()
	tick = func() {
		if eng.Now() >= stop {
			return
		}
		sent++
		port.Send(frame)
		eng.After(rng.Exp(mean), tick)
	}
	eng.After(rng.Exp(mean), tick)
	rp.RunUntil(warm)
	warmEchoed := echoed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rp.RunUntil(stop + 15*sim.Microsecond)
	runtime.ReadMemStats(&after)

	if echoed != sent || sent < 1000 {
		t.Fatalf("echoed %d of %d frames; the run must be lossless to price an echo", echoed, sent)
	}
	if p := rp.Cluster().Pending(); p != 0 {
		t.Errorf("%d events pending 15 us after the last send, want 0", p)
	}
	events := rp.Cluster().Group().Stats().Dispatched
	if events != eng.Dispatched() {
		t.Errorf("GroupStats.Dispatched = %d, the pair's one engine dispatched %d", events, eng.Dispatched())
	}
	per := float64(events) / float64(echoed)
	t.Logf("%d events for %d echoes: %.1f events per echo", events, echoed, per)
	if per > maxPer {
		t.Errorf("%.1f events per 64 B echo, want <= %.0f", per, maxPer)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(echoed-warmEchoed)
	t.Logf("%d echoes after warm-up: %.2f allocations per echo", echoed-warmEchoed, allocs)
	if allocs > maxAllocs {
		t.Errorf("%.2f allocations per 64 B echo, want <= %.1f", allocs, maxAllocs)
	}
}
