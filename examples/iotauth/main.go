// Virtualized IoT token authentication (paper §7): a multi-tenant
// DDoS-protection offload. The NIC classifies tenants and tags packets
// with a context ID; the accelerator validates each CoAP-carried JWT
// against that tenant's HMAC key; NIC policers enforce per-tenant rate
// allocations so one tenant cannot starve another.
package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/iotauth"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/swdriver"
)

func coapFrame(srcID int, sport uint16, token string) []byte {
	msg := iotauth.Message{
		Type: iotauth.NonConfirmable, Code: iotauth.CodePOST, MessageID: sport,
		Token:   []byte{9},
		Options: []iotauth.Option{{Number: iotauth.OptURIPath, Value: []byte("telemetry")}},
		Payload: append([]byte(token), append([]byte{'\n'}, make([]byte, 128)...)...),
	}
	enc, err := msg.Marshal()
	if err != nil {
		panic(err)
	}
	return netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(srcID)},
		netpkt.IPFrom(srcID), netpkt.IPFrom(2), sport, 5683, enc)
}

func main() {
	rp := flexdriver.NewRemotePair()
	srv := rp.Server
	srv.RT.CreateEthTxQueue(0, nil)
	afu := iotauth.NewAFU(srv.FLD, rp.Engine(), 8)
	ecp := flexdriver.NewEControlPlane(srv.RT)

	// Application queue for validated traffic.
	app := srv.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	const appTable = 60
	srv.NIC.ESwitch().AddRule(appTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: app.RQ()}})
	appByTenant := map[uint32]int{}
	app.OnReceive = func(frame []byte, md swdriver.RxMeta) { appByTenant[md.FlowTag]++ }

	// Two tenants: distinct HMAC keys, distinct source prefixes, and a
	// NIC policer each (performance isolation via the NIC's QoS, not
	// accelerator logic).
	keys := [][]byte{[]byte("alpha-fleet-key"), []byte("bravo-fleet-key")}
	for tnt := 0; tnt < 2; tnt++ {
		afu.SetKey(uint32(tnt+1), keys[tnt])
		src := netpkt.IPFrom(100 + tnt)
		ecp.InstallAccelerate(flexdriver.AccelerateSpec{
			Table:     0,
			Match:     flexdriver.Match{SrcIP: &src},
			Context:   uint32(tnt + 1),
			NextTable: appTable,
			Policer:   flexdriver.NewTokenBucket(rp.Engine(), 6*flexdriver.Gbps, 16<<10),
		})
	}
	srv.RT.Start()

	// Client: each tenant sends signed telemetry; tenant B's device also
	// replays a token signed with the wrong key (the attack).
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	tokenA := iotauth.SignToken(keys[0], iotauth.Claims{Issuer: "fleet-a", Device: "sensor-1"})
	tokenB := iotauth.SignToken(keys[1], iotauth.Claims{Issuer: "fleet-b", Device: "sensor-9"})
	forged := iotauth.SignToken([]byte("stolen-wrong-key"), iotauth.Claims{Issuer: "fleet-b", Device: "sensor-9"})

	for i := 0; i < 300; i++ {
		port.Send(coapFrame(100, uint16(10000+i%16), tokenA))
		port.Send(coapFrame(101, uint16(20000+i%16), tokenB))
		if i%3 == 0 {
			port.Send(coapFrame(101, uint16(30000+i%16), forged))
		}
	}
	rp.Run()

	fmt.Printf("validated: %d  invalid-signature: %d  malformed: %d\n",
		afu.Valid, afu.Invalid, afu.Malformed)
	fmt.Printf("application received — tenant A: %d, tenant B: %d\n",
		appByTenant[1], appByTenant[2])
	delivered := int64(appByTenant[1] + appByTenant[2])
	fmt.Printf("every delivered packet passed validation: %v (delivered %d <= validated %d)\n",
		delivered <= afu.Valid, delivered, afu.Valid)
	fmt.Printf("NIC policers (6 Gbps per tenant) dropped %d packets before the accelerator\n",
		srv.NIC.Stats.Drops["policer"])
	fmt.Printf("eSwitch counters: %v\n", srv.NIC.ESwitch().Counters)
}
