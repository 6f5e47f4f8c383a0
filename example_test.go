package flexdriver_test

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/echo"
	"flexdriver/internal/fld"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/swdriver"
)

// Example builds the paper's remote testbed, installs an echo accelerator
// behind FlexDriver, and bounces a frame off it — with the server CPU
// idle after setup. The simulation is deterministic, so so is the output.
func Example() {
	rp := flexdriver.NewRemotePair()
	srv := rp.Server

	// Control plane (runs once): an FLD transmit queue, egress to the
	// wire, ingress steering into the accelerator.
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})
	afu := echo.New(srv.FLD)

	// Client: send one frame, count the echo.
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	received := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { received++ }

	udp := netpkt.UDP{SrcPort: 1, DstPort: 7, Length: netpkt.UDPHeaderLen + 100}
	l4 := append(udp.Marshal(nil), make([]byte, 100)...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: netpkt.IPFrom(1), Dst: netpkt.IPFrom(2)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(1), EtherType: netpkt.EtherTypeIPv4}
	port.Send(append(eth.Marshal(nil), l3...))
	rp.Run()

	fmt.Printf("echoed=%d received=%d serverCPUPackets=%d\n",
		afu.Echoed, received, srv.Drv.RxPackets+srv.Drv.TxPackets)
	// Output: echoed=1 received=1 serverCPUPackets=0
}

// ExampleFLDConfig_Memory shows the §5.2 memory accounting: the prototype
// configuration's on-die footprint.
func ExampleFLDConfig_Memory() {
	cfg := flexdriver.DefaultFLDConfig()
	m := cfg.Memory()
	fmt.Printf("descriptor pool: %d B (8 B each)\n", cfg.TxDescPool*fld.CompressedDescBytes)
	fmt.Printf("buffers: %d KiB tx + %d KiB rx\n", cfg.TxBufBytes>>10, m.RxBuffers>>10)
	fmt.Printf("total fits on-die: %v\n", m.Total() < 10<<20)
	// Output:
	// descriptor pool: 32768 B (8 B each)
	// buffers: 256 KiB tx + 256 KiB rx
	// total fits on-die: true
}

// ExampleNewEControlPlane_installAccelerate shows the FLD-E "accelerate"
// match-action extension: detour fragments through the accelerator and
// resume steering at table 40.
func ExampleNewEControlPlane_installAccelerate() {
	rp := flexdriver.NewRemotePair()
	rp.Server.RT.CreateEthTxQueue(0, nil)
	ecp := flexdriver.NewEControlPlane(rp.Server.RT)
	isFrag := true
	ecp.InstallAccelerate(flexdriver.AccelerateSpec{
		Table:     0,
		Match:     flexdriver.Match{IsFragment: &isFrag},
		Context:   7,
		NextTable: 40,
	})
	fmt.Println("accelerate rule installed; returning packets resume at table 40")
	// Output: accelerate rule installed; returning packets resume at table 40
}
