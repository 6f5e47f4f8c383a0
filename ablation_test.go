package flexdriver

import (
	"bytes"
	"math/rand"
	"testing"

	"flexdriver/internal/accel/echo"
	"flexdriver/internal/swdriver"
)

// remoteEchoBed builds the standard remote FLD-E echo with a custom FLD
// configuration.
func remoteEchoBed(t *testing.T, cfg FLDConfig) (*RemotePair, *swdriver.EthPort, *echo.AFU) {
	t.Helper()
	rp := NewRemotePair(WithFLD(cfg))
	srv := rp.Server
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	afu := echo.New(srv.FLD)
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
	return rp, port, afu
}

// TestWQEByMMIODisabled exercises the descriptor-read path: with the §6
// optimization off, the NIC fetches descriptors from FLD's BAR, where FLD
// generates them on the fly from the compressed pool (§5.2's core
// mechanism).
func TestWQEByMMIODisabled(t *testing.T) {
	cfg := DefaultFLDConfig()
	cfg.WQEByMMIO = false
	rp, port, afu := remoteEchoBed(t, cfg)

	var received [][]byte
	port.OnReceive = func(frame []byte, md swdriver.RxMeta) { received = append(received, bytes.Clone(frame)) }
	frame := buildUDPFrame(1, 2, 4000, 7777, 700)
	const n = 50
	for i := 0; i < n; i++ {
		port.Send(frame)
	}
	rp.Run()
	if afu.Echoed != n || len(received) != n {
		t.Fatalf("echoed=%d received=%d want %d (drops %v)", afu.Echoed, len(received), n,
			rp.Server.NIC.Stats.Drops)
	}
	for _, f := range received {
		if !bytes.Equal(f, frame) {
			t.Fatal("frame corrupted via on-the-fly descriptor generation")
		}
	}
}

// TestSignalEveryOne exercises the unamortized completion path.
func TestSignalEveryOne(t *testing.T) {
	cfg := DefaultFLDConfig()
	cfg.SignalEvery = 1
	rp, port, afu := remoteEchoBed(t, cfg)
	got := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
	frame := buildUDPFrame(1, 2, 4000, 7777, 256)
	for i := 0; i < 64; i++ {
		port.Send(frame)
	}
	rp.Run()
	if got != 64 || afu.Echoed != 64 {
		t.Fatalf("echoed=%d received=%d", afu.Echoed, got)
	}
}

// TestFLDCreditExhaustionAndRecovery: a tiny transmit buffer pool forces
// credit stalls under a burst; traffic that fits the credits still flows,
// and completions restore the credits afterwards.
func TestFLDCreditExhaustionAndRecovery(t *testing.T) {
	cfg := DefaultFLDConfig()
	cfg.TxBufBytes = 4 << 10 // 8 pages: only ~4 in-flight 700 B frames
	rp, port, afu := remoteEchoBed(t, cfg)
	got := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
	frame := buildUDPFrame(1, 2, 4000, 7777, 700)
	const n = 200
	for i := 0; i < n; i++ {
		port.Send(frame)
	}
	rp.Run()
	if afu.Dropped == 0 {
		t.Fatal("expected credit stalls with a tiny pool")
	}
	if int64(got) != afu.Echoed {
		t.Fatalf("received %d != echoed %d", got, afu.Echoed)
	}
	// Credits must be fully restored once the system drains.
	slots, bufBytes := rp.Server.FLD.Credits(0)
	if bufBytes != cfg.TxBufBytes {
		t.Fatalf("buffer credits leaked: %d/%d", bufBytes, cfg.TxBufBytes)
	}
	if slots <= 0 {
		t.Fatalf("descriptor credits leaked: %d", slots)
	}
	// And the pipe still works: send again.
	before := afu.Echoed
	port.Send(frame)
	rp.Run()
	if afu.Echoed != before+1 {
		t.Fatal("FLD wedged after credit exhaustion")
	}
}

// TestOnCreditsNotification: the §5.5 credit interface notifies the AFU
// when resources return.
func TestOnCreditsNotification(t *testing.T) {
	cfg := DefaultFLDConfig()
	rp, port, _ := remoteEchoBed(t, cfg)
	notifications := 0
	rp.Server.FLD.SetOnCredits(func() { notifications++ })
	port.OnReceive = func([]byte, swdriver.RxMeta) {}
	frame := buildUDPFrame(1, 2, 4000, 7777, 256)
	for i := 0; i < 64; i++ {
		port.Send(frame)
	}
	rp.Run()
	if notifications == 0 {
		t.Fatal("no credit-release notifications")
	}
}

// TestTinyFLDConfigStillWorks: a minimal configuration (one queue, small
// everything) passes traffic — the module has no hidden dependencies on
// the prototype sizing.
func TestTinyFLDConfigStillWorks(t *testing.T) {
	cfg := FLDConfig{
		NumTxQueues:   1,
		TxRingEntries: 64,
		TxDescPool:    64,
		TxBufBytes:    32 << 10,
		RxBufBytes:    32 << 10,
		TxPageBytes:   512,
		RxStrideBytes: 256,
		RxWQEBytes:    8 << 10,
		CQEntries:     256,
		SignalEvery:   4,
		WQEByMMIO:     true,
		ClockMHz:      250,
		PipelineII:    8,
		PipelineDelay: 150 * Nanosecond,
	}
	rp, port, afu := remoteEchoBed(t, cfg)
	got := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
	frame := buildUDPFrame(1, 2, 1, 2, 300)
	for i := 0; i < 30; i++ {
		port.Send(frame)
	}
	rp.Run()
	if got != 30 || afu.Echoed != 30 {
		t.Fatalf("tiny config: echoed=%d received=%d", afu.Echoed, got)
	}
}

// TestMultiQueueFLD: traffic spread across both FLD transmit queues.
func TestMultiQueueFLD(t *testing.T) {
	rp := NewRemotePair()
	srv := rp.Server
	srv.RT.CreateEthTxQueue(0, nil)
	srv.RT.CreateEthTxQueue(1, nil)
	ecp := NewEControlPlane(srv.RT)
	ecp.InstallDefaultEgressToWire()
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	srv.RT.Start()

	// Alternate queues per packet.
	i := 0
	srv.FLD.SetHandler(HandlerFunc(func(data []byte, md Metadata) {
		q := i % 2
		i++
		if err := srv.FLD.Send(q, data, md); err != nil {
			t.Errorf("send on queue %d: %v", q, err)
		}
	}))

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
	got := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
	frame := buildUDPFrame(1, 2, 9, 9, 400)
	for j := 0; j < 40; j++ {
		port.Send(frame)
	}
	rp.Run()
	if got != 40 {
		t.Fatalf("received %d/40 across two queues", got)
	}
}

// TestPerQueueShaping: an FLD transmit queue with a NIC egress shaper is
// rate-limited without dropping (the §5.5 per-queue backpressure story).
func TestPerQueueShaping(t *testing.T) {
	rp := NewRemotePair()
	srv := rp.Server
	shaper := NewTokenBucket(rp.Engine(), 1*Gbps, 3000)
	srv.RT.CreateEthTxQueue(0, shaper)
	ecp := NewEControlPlane(srv.RT)
	ecp.InstallDefaultEgressToWire()
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	srv.RT.Start()
	echo.New(srv.FLD)

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
	got := 0
	var last Time
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++; last = rp.Engine().Now() }
	frame := buildUDPFrame(1, 2, 3, 3, 1200)
	const n = 50
	for j := 0; j < n; j++ {
		port.Send(frame)
	}
	rp.Run()
	if got != n {
		t.Fatalf("shaper dropped traffic: %d/%d", got, n)
	}
	// 50 x ~1.25 KB at 1 Gbps >= ~480 us.
	if last < 400*Microsecond {
		t.Fatalf("finished in %v — shaper did not pace", last)
	}
}

// TestRandomFLDConfigs fuzzes the module's sizing: random valid
// configurations must all pass traffic end to end without drops, leaks or
// wedges.
func TestRandomFLDConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		cfg := FLDConfig{
			NumTxQueues:   1 + rng.Intn(4),
			TxRingEntries: 64 << rng.Intn(4),
			TxDescPool:    256 << rng.Intn(3),
			TxBufBytes:    (32 << rng.Intn(4)) << 10,
			RxBufBytes:    (64 << rng.Intn(3)) << 10,
			TxPageBytes:   256 << rng.Intn(2),
			RxStrideBytes: 128 << rng.Intn(2),
			RxWQEBytes:    (8 << rng.Intn(3)) << 10,
			CQEntries:     512 << rng.Intn(3),
			SignalEvery:   1 + rng.Intn(16),
			WQEByMMIO:     rng.Intn(2) == 0,
			ClockMHz:      250,
			PipelineII:    2 + rng.Intn(8),
			PipelineDelay: Duration(rng.Intn(300)) * Nanosecond,
		}
		rp, port, afu := remoteEchoBed(t, cfg)
		got := 0
		port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
		size := 64 + rng.Intn(1200)
		frame := buildUDPFrame(1, 2, 7, 8, size)
		const n = 40
		for i := 0; i < n; i++ {
			port.Send(frame)
		}
		rp.Run()
		if got != n || afu.Echoed != n {
			t.Fatalf("trial %d (cfg %+v): echoed=%d received=%d want %d (drops %v)",
				trial, cfg, afu.Echoed, got, n, rp.Server.NIC.Stats.Drops)
		}
	}
}
