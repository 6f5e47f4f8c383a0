package flexdriver

import (
	"testing"

	"flexdriver/internal/accel/echo"
	"flexdriver/internal/nic"
	"flexdriver/internal/swdriver"
)

// measureEchoPps floods the given remote-echo setup with small packets
// from many flows and returns the echoed packet rate in Mpps.
func measureEchoPps(t *testing.T, rp *RemotePair, port *swdriver.EthPort, window Duration) float64 {
	t.Helper()
	received := 0
	measuring := false
	port.OnReceive = func([]byte, swdriver.RxMeta) {
		if measuring {
			received++
		}
	}
	// 64 flows of 64 B packets at > line rate.
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = buildUDPFrame(1, 2, uint16(3000+i), 7777, 64)
	}
	pktBits := 64 * 8
	interval := Duration(float64(pktBits) / 30e9 * float64(Second))
	warmup := 100 * Microsecond
	deadline := warmup + window + 50*Microsecond
	i := 0
	var tick func()
	tick = func() {
		if rp.Engine().Now() >= deadline {
			return
		}
		port.Send(frames[i%len(frames)])
		i++
		rp.Engine().After(interval, tick)
	}
	rp.Engine().After(0, tick)
	rp.RunUntil(warmup)
	measuring = true
	rp.RunUntil(warmup + window)
	measuring = false
	rp.RunUntil(deadline)
	return float64(received) / window.Seconds() / 1e6
}

// TestMultiFLDCoreScaling demonstrates the paper's §9 scaling path: two
// FLD cores behind one NIC, with RSS balancing flows across them, push
// past a single core's pipeline ceiling.
func TestMultiFLDCoreScaling(t *testing.T) {
	genPrm := DriverParams{
		RxCost: 4 * Nanosecond, TxCost: 4 * Nanosecond,
		DoorbellBatch: 8, SignalEvery: 8,
	}
	// Constrain the FLD pipeline so one core is clearly the bottleneck
	// at 64 B (II=16 at 250 MHz: ~15.6 Mpps per core vs ~30 Mpps line).
	cfg := DefaultFLDConfig()
	cfg.PipelineII = 16

	single := func() float64 {
		rp := NewRemotePair(WithDriver(genPrm), WithFLD(cfg))
		srv := rp.Server
		srv.RT.StartEth()
		srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
		echo.New(srv.FLD)
		port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
		rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
		return measureEchoPps(t, rp, port, 300*Microsecond)
	}()

	dual := func() float64 {
		rp := NewRemotePair(WithDriver(genPrm), WithFLD(cfg))
		srv := rp.Server
		// Core 1 is the built-in one; core 2 is added on the same FPGA.
		_, rt2 := srv.AddFLD(cfg)
		for _, rt := range []*Runtime{srv.RT, rt2} {
			rt.StartEth()
			echo.New(rt.FLD())
		}
		// RSS spreads flows across the two cores' receive queues.
		tir := &nic.TIR{RQs: []*nic.RQ{srv.RT.RQ(), rt2.RQ()}}
		srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToTIR: tir}})
		port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
		rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
		return measureEchoPps(t, rp, port, 300*Microsecond)
	}()

	t.Logf("single FLD core: %.2f Mpps; dual cores + RSS: %.2f Mpps", single, dual)
	if single > 17 {
		t.Fatalf("single core exceeded its pipeline ceiling: %.2f Mpps", single)
	}
	if dual < 1.4*single {
		t.Fatalf("dual cores scaled only %.2fx", dual/single)
	}
}

// TestConnectX6DxPortability reproduces the §6 portability claim: the
// same FLD design drives a newer-generation NIC (faster engines, deeper
// windows) without modification.
func TestConnectX6DxPortability(t *testing.T) {
	rp := NewRemotePair(WithNIC(nic.ConnectX6DxParams()))
	srv := rp.Server
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	afu := echo.New(srv.FLD)
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
	got := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
	frame := buildUDPFrame(1, 2, 5, 6, 512)
	for i := 0; i < 100; i++ {
		port.Send(frame)
	}
	rp.Run()
	if got != 100 || afu.Echoed != 100 {
		t.Fatalf("FLD against ConnectX-6 Dx: echoed=%d received=%d", afu.Echoed, got)
	}
}
