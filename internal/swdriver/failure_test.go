package swdriver

import (
	"testing"

	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/telemetry/bindtest"
)

// wireAtoB builds two hosts cabled back to back with an Ethernet port on
// each, steering b's ingress into its port; returns the hosts, a's tx
// port, and a counter of frames b received.
func wireAtoB(eng *sim.Engine) (a, b *host, tx *EthPort, got *int) {
	a = newHost(eng, noJitter())
	b = newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	tx = a.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})
	n := 0
	rx.OnReceive = func([]byte, RxMeta) { n++ }
	return a, b, tx, &n
}

// TestDriverCrashRestart: a driver crash drops application sends while
// down and reattaches its queues on restart without outside help.
func TestDriverCrashRestart(t *testing.T) {
	eng := sim.NewEngine()
	a, _, tx, got := wireAtoB(eng)
	f := frame(256, 7)

	for i := 0; i < 5; i++ {
		tx.Send(f)
	}
	eng.After(10*sim.Microsecond, a.drv.Crash)
	eng.After(12*sim.Microsecond, func() { tx.Send(f) }) // lost: process is down
	eng.After(14*sim.Microsecond, a.drv.Restart)
	eng.After(20*sim.Microsecond, func() {
		for i := 0; i < 5; i++ {
			tx.Send(f)
		}
	})
	eng.Run()

	if *got != 10 {
		t.Fatalf("received %d frames, want 10", *got)
	}
	if a.drv.Crashes != 1 || a.drv.DownTxDrops != 1 {
		t.Fatalf("Crashes=%d DownTxDrops=%d, want 1 and 1", a.drv.Crashes, a.drv.DownTxDrops)
	}
	if a.drv.downN > 0 {
		t.Fatal("driver still down after Restart")
	}
}

// TestSupervisorRecoversNICCrash: a NIC crash–restart leaves every ring
// errored; one supervisor Kick climbs the ladder until traffic flows
// again, and the episode lands in MTTR telemetry.
func TestSupervisorRecoversNICCrash(t *testing.T) {
	eng := sim.NewEngine()
	a, _, tx, got := wireAtoB(eng)
	f := frame(256, 7)

	reg := telemetry.New()
	reg.Bind(eng.Now)
	sup := NewSupervisor(a.drv, 42)
	sup.SetTelemetry(reg.Scope("drv/supervisor"))

	for i := 0; i < 5; i++ {
		tx.Send(f)
	}
	eng.After(10*sim.Microsecond, a.nic.Crash)
	eng.After(14*sim.Microsecond, a.nic.Restart)
	eng.After(16*sim.Microsecond, sup.Kick)
	eng.After(40*sim.Microsecond, func() {
		if !sup.Healthy() {
			t.Error("driver not healthy 24us after the restart")
		}
		for i := 0; i < 5; i++ {
			tx.Send(f)
		}
	})
	eng.Run()

	if *got != 10 {
		t.Fatalf("received %d frames, want 10", *got)
	}
	if sup.Active() {
		t.Fatal("episode still open at quiescence")
	}
	snap := reg.Snapshot()
	if n := snap.Counters["drv/supervisor/episodes"]; n != 1 {
		t.Fatalf("episodes = %d, want 1", n)
	}
	if snap.Counters["drv/supervisor/detects"] != 1 {
		t.Fatal("detect not counted")
	}
	h := snap.Hists["drv/supervisor/mttr"]
	if h.Count != 1 {
		t.Fatalf("mttr observations = %d, want 1", h.Count)
	}
	if hi := snap.Gauges["drv/supervisor/mttr_max"].High; hi <= 0 {
		t.Fatalf("mttr_max high-water = %d, want > 0", hi)
	}
}

// TestSupervisorHealsAnErroredSendRingAtPoll: one failed descriptor fetch
// leaves only an RDMA endpoint's send ring in Error (the endpoint, unlike
// an Ethernet port, waits for a poll to flush it). The supervisor must see
// it (a health check that skipped send rings would report a stuck driver
// healthy), and its lowest rung, the poll, must reset it: the episode
// closes without entering the queue-reset rung, and messages flow again.
func TestSupervisorHealsAnErroredSendRingAtPoll(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	ea := a.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: 8, RecvEntries: 64})
	eb := b.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: 8, RecvEntries: 64})
	nic.ConnectQPs(ea.QP, eb.QP)
	got := 0
	eb.OnMessage = func([]byte) { got++ }
	reg := telemetry.New()
	reg.Bind(eng.Now)
	sup := NewSupervisor(a.drv, 3)
	sup.SetTelemetry(reg.Scope("drv/supervisor"))

	failed := false
	a.nic.SetFaults(&nic.FaultHooks{FailWQEFetch: func(*nic.SQ) bool {
		first := !failed
		failed = true
		return first
	}})
	msg := make([]byte, 700)
	ea.Send(msg)
	eng.Run()
	if ea.tx.sq.State() != nic.QueueError {
		t.Fatalf("send ring %v after the failed fetch, want error", ea.tx.sq.State())
	}
	if sup.Healthy() {
		t.Fatal("supervisor reports a driver with its send ring in Error healthy")
	}
	sup.Kick()
	eng.Run()
	snap := reg.Snapshot()
	if !sup.Healthy() || snap.Counters["drv/supervisor/episodes"] != 1 {
		t.Fatalf("healthy=%v after %d episodes, want one episode that healed", sup.Healthy(), snap.Counters["drv/supervisor/episodes"])
	}
	if n := snap.Counters["drv/supervisor/rung/queue_reset"]; n != 0 {
		t.Errorf("the episode entered the queue-reset rung %d times: the poll rung did not reset the errored ring", n)
	}
	for range 3 {
		ea.Send(msg)
	}
	eng.Run()
	if got != 3 {
		t.Fatalf("received %d messages after the recovery, want 3", got)
	}
}

// TestSupervisorIdleWhenHealthy: kicking a healthy driver opens no
// episode and schedules no events (the engine must quiesce untouched).
func TestSupervisorIdleWhenHealthy(t *testing.T) {
	eng := sim.NewEngine()
	a, _, _, _ := wireAtoB(eng)
	eng.Run() // drain setup doorbells
	sup := NewSupervisor(a.drv, 1)
	sup.Kick()
	if sup.Active() {
		t.Fatal("episode opened on a healthy driver")
	}
	if eng.Pending() != 0 {
		t.Fatalf("supervisor left %d events pending", eng.Pending())
	}
}

// TestSupervisorFLRRungHeals: a device that returns after the
// queue-reset rung has spent its attempts (rung 1's resets are refused
// while it is away) is healed by the FLR rung's function-level reset: the
// episode closes without entering the reattach rung. Attempts k = 1..5
// land at offsets within [0, 0], [0.375, 0.625], [1.125, 1.875],
// [2.625, 4.375] and [5.625, 9.375] µs of the kick (backoff from 500 ns,
// ±25 %), so a restart 5 µs in falls between the last queue reset and
// the first FLR whatever the jitter draws.
func TestSupervisorFLRRungHeals(t *testing.T) {
	eng := sim.NewEngine()
	a, _, tx, got := wireAtoB(eng)
	f := frame(256, 7)
	reg := telemetry.New()
	reg.Bind(eng.Now)
	sup := NewSupervisor(a.drv, 11)
	sup.SetTelemetry(reg.Scope("sup"))

	eng.After(10*sim.Microsecond, a.nic.Crash)
	eng.After(11*sim.Microsecond, sup.Kick)
	eng.After(16*sim.Microsecond, a.nic.Restart)
	eng.After(40*sim.Microsecond, func() { tx.Send(f) })
	eng.Run()

	snap := reg.Snapshot()
	if n := a.nic.Stats.DeviceFLRs; n != 1 {
		t.Errorf("the FLR rung issued %d function-level resets, want 1", n)
	}
	if snap.Counters["sup/rung/flr"] != 1 || snap.Counters["sup/rung/reattach"] != 0 || snap.Counters["sup/episodes"] != 1 {
		t.Errorf("rungs entered flr=%d reattach=%d, episodes=%d: the FLR rung did not heal the device",
			snap.Counters["sup/rung/flr"], snap.Counters["sup/rung/reattach"], snap.Counters["sup/episodes"])
	}
	if *got != 1 {
		t.Fatalf("received %d frames after the recovery, want 1", *got)
	}
}

// TestSupervisorPacesAttempts: attempts are spaced by backoff, so an
// outage is met by a ladder that climbs over microseconds rather than
// spending its whole attempt budget at the instant of detection. Two
// microseconds after the kick a paced ladder is in the queue-reset rung
// (attempt 4, the first that could enter the FLR rung, is 2.625 µs in at
// the earliest) and has abandoned nothing.
func TestSupervisorPacesAttempts(t *testing.T) {
	eng := sim.NewEngine()
	a, _, _, _ := wireAtoB(eng)
	reg := telemetry.New()
	reg.Bind(eng.Now)
	sup := NewSupervisor(a.drv, 5)
	sup.SetTelemetry(reg.Scope("sup"))

	eng.After(10*sim.Microsecond, a.nic.Crash)
	eng.After(11*sim.Microsecond, sup.Kick)
	eng.After(13*sim.Microsecond, func() {
		snap := reg.Snapshot()
		if n := snap.Counters["sup/rung/queue_reset"]; n != 1 || snap.Counters["sup/rung/flr"] != 0 || snap.Counters["sup/abandoned"] != 0 {
			t.Errorf("2us after the kick: queue_reset entered %d, flr %d, abandoned %d: attempts are not paced by backoff",
				n, snap.Counters["sup/rung/flr"], snap.Counters["sup/abandoned"])
		}
	})
	eng.After(60*sim.Microsecond, a.nic.Restart)
	eng.Run()
	if !sup.Healthy() {
		t.Fatal("not healthy after the device returned")
	}
}

// TestSupervisorCrashDuringEpisode: if the NIC stays down past several
// attempts the ladder keeps escalating (resets refuse to stick while the
// device is away) and still converges once the device returns, in the
// reattach rung it had climbed to by then.
func TestSupervisorCrashDuringEpisode(t *testing.T) {
	eng := sim.NewEngine()
	a, _, tx, got := wireAtoB(eng)
	f := frame(256, 7)

	reg := telemetry.New()
	reg.Bind(eng.Now)
	sup := NewSupervisor(a.drv, 7)
	sup.SetTelemetry(reg.Scope("sup"))
	for i := 0; i < 3; i++ {
		tx.Send(f)
	}
	eng.After(10*sim.Microsecond, a.nic.Crash)
	// Kick arrives while the device is still down: every rung's reset is
	// refused until the restart 25us later.
	eng.After(11*sim.Microsecond, sup.Kick)
	eng.After(36*sim.Microsecond, a.nic.Restart)
	eng.After(60*sim.Microsecond, func() {
		if !sup.Healthy() {
			t.Error("not healthy 24us after the device returned: the reattach rung did not heal the rings")
		}
		for i := 0; i < 3; i++ {
			tx.Send(f)
		}
	})
	eng.Run()
	if snap := reg.Snapshot(); snap.Counters["sup/rung/reattach"] != 1 || snap.Counters["sup/episodes"] != 1 {
		t.Errorf("reattach rung entered %d times, %d episodes closed; want the one episode healed in it",
			snap.Counters["sup/rung/reattach"], snap.Counters["sup/episodes"])
	}
	if *got != 6 {
		t.Fatalf("received %d frames, want 6", *got)
	}
	if sup.Active() {
		t.Fatal("episode still open")
	}
}

// TestOversizeSendIsDroppedAndCounted: a frame no transmit buffer can
// hold is an application error on a library path — dropped and counted
// in TxErrors (errors/tx) like any other lost transmit, never a panic —
// and the port keeps working.
func TestOversizeSendIsDroppedAndCounted(t *testing.T) {
	eng := sim.NewEngine()
	a, _, tx, got := wireAtoB(eng)
	reg := telemetry.New()
	a.drv.SetTelemetry(reg.Scope("drv"))

	tx.Send(make([]byte, tx.tx.bufSz+1))
	tx.Send(frame(256, 7))
	eng.Run()

	if a.drv.TxErrors != 1 || reg.Snapshot().Get("drv/errors/tx") != 1 {
		t.Fatalf("TxErrors=%d errors/tx=%d, want 1 and 1", a.drv.TxErrors, reg.Snapshot().Get("drv/errors/tx"))
	}
	if *got != 1 || a.drv.TxPackets != 1 {
		t.Fatalf("received %d, posted %d; want the in-range frame only", *got, a.drv.TxPackets)
	}
}

// TestDriverLedgerIsPublishedWhole: the driver's error, recovery and
// crash fields are the counters at their paths, and an int64 field added
// to Driver without a CounterVar line (or a place on the unpublished
// list, like the per-port packet totals) fails.
func TestDriverLedgerIsPublishedWhole(t *testing.T) {
	h := newHost(sim.NewEngine(), noJitter())
	reg := telemetry.New()
	h.drv.SetTelemetry(reg.Scope("drv"))
	bindtest.Fields(t, reg, "drv/", h.drv, map[string]string{
		"CQEErrors": "errors/cqe", "TxErrors": "errors/tx", "RxErrors": "errors/rx",
		"Recoveries": "errors/recoveries", "Crashes": "crashes",
		"DownTxDrops": "down/tx_drops", "DownCQEs": "down/cqes",
	}, "RxPackets", "TxPackets")
}

// TestErrorCompletionRecyclesInOrder: a receive completion the fault
// plane rewrites into an error still frees its buffer, after the CPU work
// of the good completions ahead of it. Recycling it at once reposted a
// buffer a good packet still waiting for the CPU occupied, and frames
// reached the application twice.
func TestErrorCompletionRecyclesInOrder(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	// A receiver whose CPU takes longer per frame than the NIC takes to
	// fetch a descriptor keeps good completions queued while errors
	// arrive.
	slow := noJitter()
	slow.RxCost = 2 * sim.Microsecond
	b := newHost(eng, slow)
	nic.ConnectWire(a.nic, b.nic, 100*sim.Gbps, 500*sim.Nanosecond)
	tx := a.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 8})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})
	pushes := 0
	b.nic.SetFaults(&nic.FaultHooks{CQEError: func(*nic.CQ) bool {
		pushes++
		return pushes%5 == 0
	}})
	seen := map[uint16]int{}
	rx.OnReceive = func(f []byte, _ RxMeta) { seen[uint16(f[34])<<8|uint16(f[35])]++ }
	for i := 0; i < 300; i++ {
		tx.Send(frame(64, uint16(i)))
	}
	eng.Run()

	if len(seen) == 0 || b.drv.CQEErrors == 0 {
		t.Fatalf("%d frames delivered, %d error completions: the test exercised nothing", len(seen), b.drv.CQEErrors)
	}
	for sport, n := range seen {
		if n > 1 {
			t.Fatalf("frame %d delivered %d times", sport, n)
		}
	}
	if got := int64(len(seen)); got != b.drv.RxPackets {
		t.Fatalf("%d distinct frames delivered, RxPackets %d", got, b.drv.RxPackets)
	}
}
