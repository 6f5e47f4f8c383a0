package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/iotauth"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rig"
	"flexdriver/internal/swdriver"
)

// iotFrame builds a CoAP-over-UDP frame of the given total size carrying
// a signed JWT for the tenant.
func iotFrame(size int, srcID int, sport uint16, key []byte, dev string) []byte {
	token := iotauth.SignToken(key, iotauth.Claims{Issuer: "iot", Device: dev})
	payload := append([]byte(token), '\n')
	msg := iotauth.Message{
		Type: iotauth.NonConfirmable, Code: iotauth.CodePOST, MessageID: 1,
		Token:   []byte{1, 2},
		Options: []iotauth.Option{{Number: iotauth.OptURIPath, Value: []byte("telemetry")}},
	}
	base := netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.UDPHeaderLen
	msg.Payload = payload
	enc, err := msg.Marshal()
	if err != nil {
		panic(err)
	}
	if pad := size - base - len(enc); pad > 0 {
		msg.Payload = append(payload, make([]byte, pad)...)
		enc, _ = msg.Marshal()
	}
	return netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(srcID)},
		netpkt.IPFrom(srcID), netpkt.IPFrom(2), sport, 5683, enc)
}

// iotBed wires the §8.2.3 topology: TRex-like generator, NIC tagging
// tenants by source address (with optional per-tenant policers), the
// authentication AFU, and validated traffic resuming toward a host
// application queue. Returns the client port too.
func iotBed(tenants int, policerGbps float64) (*flexdriver.RemotePair, *iotauth.AFU, *swdriver.EthPort) {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()))
	srv := rp.Server
	srv.RT.CreateEthTxQueue(0, nil)
	afu := iotauth.NewAFU(srv.FLD, rp.Engine(), 8)
	ecp := flexdriver.NewEControlPlane(srv.RT)

	// Application queue on the server host: validated packets land here.
	appPort := srv.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	const appTable = 60
	srv.NIC.ESwitch().AddRule(appTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: appPort.RQ()}})

	for tnt := 0; tnt < tenants; tnt++ {
		key := []byte(fmt.Sprintf("tenant-%d-secret", tnt))
		afu.SetKey(uint32(tnt+1), key)
		src := netpkt.IPFrom(100 + tnt)
		var pol *flexdriver.TokenBucket
		if policerGbps > 0 {
			pol = flexdriver.NewTokenBucket(rp.Engine(), flexdriver.BitRate(policerGbps*1e9), 16<<10)
		}
		ecp.InstallAccelerate(flexdriver.AccelerateSpec{
			Table:     0,
			Match:     flexdriver.Match{SrcIP: &src},
			Context:   uint32(tnt + 1),
			NextTable: appTable,
			Policer:   pol,
		})
	}
	srv.RT.Start()

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	return rp, afu, port
}

// IotLineRate validates the §8.2.3 observation that the offload meets
// line rate for packets >= 256 B.
func IotLineRate(window flexdriver.Duration) *Result {
	r := &Result{ID: "iot-linerate", Title: "IoT token authentication line rate (valid tokens)"}
	r.Columns = []string{"size", "line Gbps", "validated Gbps", "meets"}
	key := []byte("tenant-0-secret")
	allMeet := true
	for _, size := range []int{256, 512, 1024} {
		rp, afu, port := iotBed(1, 0)
		frame := iotFrame(size, 100, 10000, key, "dev0")
		validated := goodput(rp.Engine(), pointWarmup, window, float64(len(frame)), 26.5,
			func() { port.Send(frame) }, func() int64 { return afu.ValidBytes[1] })
		line := perfmodel.EthernetGoodput(25, size)
		meets := validated >= 0.90*line
		if !meets {
			allMeet = false
		}
		r.AddRow(d0(size), f2(line), f2(validated), fmt.Sprintf("%v", meets))
	}
	r.Check("line rate for sizes >= 256 B", 1, b2f(allMeet), "", allMeet, "")
	return r
}

// IotInvalidTokensDropped verifies the security function: packets with
// forged tokens never reach the application.
func IotInvalidTokensDropped(window flexdriver.Duration) *Result {
	r := &Result{ID: "iot-security", Title: "IoT offload drops forged tokens"}
	rp, afu, port := iotBed(1, 0)
	good := iotFrame(512, 100, 10000, []byte("tenant-0-secret"), "dev0")
	forged := iotFrame(512, 100, 10001, []byte("attacker-key"), "dev0")
	n := 0
	rig.OpenLoop(rp.Engine(), 0, window, 1, rig.Every(2*flexdriver.Microsecond), func() {
		if n%2 == 0 {
			port.Send(good)
		} else {
			port.Send(forged)
		}
		n++
	})
	rp.Run()
	r.Columns = []string{"valid", "invalid", "malformed"}
	r.AddRow(d0(int(afu.Valid)), d0(int(afu.Invalid)), d0(int(afu.Malformed)))
	ok := afu.Valid > 0 && afu.Invalid > 0 && afu.Valid+afu.Invalid >= int64(n)-20 &&
		afu.Malformed == 0
	r.Check("forged tokens rejected", float64(n/2), float64(afu.Invalid), "packets",
		ok && within(float64(afu.Invalid), float64(n/2), 0.1), "")
	return r
}

// IotIsolation reproduces the §8.2.3 isolation experiment: tenants
// offering 8 and 16 Gbps into a 12 Gbps accelerator; without shaping
// admission is proportional (~4.15/8.35), with 6 Gbps NIC policers both
// tenants get their allocation (6/6).
func IotIsolation(window flexdriver.Duration) *Result {
	r := &Result{ID: "iot-isolation", Title: "IoT offload tenant isolation (Gbps admitted)"}
	r.Columns = []string{"shaping", "tenant A (8G offered)", "tenant B (16G offered)"}

	run := func(policerGbps float64) (float64, float64) {
		rp, afu, port := iotBed(2, policerGbps)
		// Re-tune the AFU to a 12 Gbps capacity at this packet size.
		size := 1024
		afu.PerPacket = flexdriver.Duration(float64(8*size*8) / 12e9 * float64(flexdriver.Second))
		frameA := iotFrame(size, 100, 10000, []byte("tenant-0-secret"), "devA")
		frameB := iotFrame(size, 101, 20000, []byte("tenant-1-secret"), "devB")
		stop := pointWarmup + window + pointDrain
		rig.OpenLoop(rp.Engine(), 0, stop, 1, rig.Every(period(float64(size), 8)), func() { port.Send(frameA) })
		rig.OpenLoop(rp.Engine(), 0, stop, 1, rig.Every(period(float64(size), 16)), func() { port.Send(frameB) })
		var inA, inB int64
		rig.Window(rp.Engine(), pointWarmup, window, pointDrain, func(bool) {
			inA, inB = afu.ValidBytes[1]-inA, afu.ValidBytes[2]-inB
		})
		return gbps(inA, window), gbps(inB, window)
	}

	ua, ub := run(0)
	sa, sb := run(6)
	r.AddRow("none", f2(ua), f2(ub))
	r.AddRow("6 Gbps per tenant", f2(sa), f2(sb))

	r.Check("unshaped tenant A", 4.15, ua, "Gbps", within(ua, 4.15, 0.25), "proportional admission")
	r.Check("unshaped tenant B", 8.35, ub, "Gbps", within(ub, 8.35, 0.25), "")
	r.Check("shaped tenant A", 6, sa, "Gbps", within(sa, 6, 0.12), "NIC policer enforces allocation")
	r.Check("shaped tenant B", 6, sb, "Gbps", within(sb, 6, 0.12), "")
	return r
}
