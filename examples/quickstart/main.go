// Quickstart: build the paper's remote testbed, install an echo
// accelerator behind FlexDriver, and bounce packets off it — all data-path
// work happens between the NIC and FLD over peer-to-peer PCIe, with the
// server's CPU idle after setup.
package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/echo"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/swdriver"
)

func main() {
	// A client host and an Innova-2-style server (NIC + FPGA carrying
	// FLD), cabled back to back at 25 GbE.
	rp := flexdriver.NewRemotePair()
	srv := rp.Server

	// Control plane (runs once, on the server's CPU): one FLD transmit
	// queue, accelerator egress to the wire, and a steering rule sending
	// every ingress frame to the accelerator.
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})

	// The accelerator: a one-liner echo AFU on FLD's streaming interface.
	afu := echo.New(srv.FLD)

	// Client: a software port that fires frames and counts the echoes.
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})

	received := 0
	var lastRTT flexdriver.Duration
	var sentAt flexdriver.Time
	port.OnReceive = func(frame []byte, md swdriver.RxMeta) {
		received++
		lastRTT = rp.Engine().Now() - sentAt
	}

	// Fire 1000 frames.
	frame := netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(1)},
		netpkt.IPFrom(1), netpkt.IPFrom(2), 1234, 7777, make([]byte, 498))

	const n = 1000
	for i := 0; i < n; i++ {
		if i == n-1 {
			sentAt = rp.Engine().Now()
		}
		port.Send(frame)
	}
	rp.Run()

	fmt.Printf("sent %d frames of %d bytes\n", n, len(frame))
	fmt.Printf("echoed by the accelerator: %d (dropped %d)\n", afu.Echoed, afu.Dropped)
	fmt.Printf("received back at the client: %d\n", received)
	fmt.Printf("last-frame round trip: %v\n", lastRTT)
	fmt.Printf("server CPU data-path packets: %d (zero = the point of FlexDriver)\n",
		srv.Drv.RxPackets+srv.Drv.TxPackets)
	fmt.Printf("FLD on-die memory for this config: %.1f KiB\n",
		float64(srv.FLD.Config().Memory().Total())/1024)
}
