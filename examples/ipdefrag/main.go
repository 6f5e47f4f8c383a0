// Inline IP defragmentation (paper §7): fragments detour through the
// FLD-attached reassembly accelerator *in the middle* of the NIC pipeline
// — after VXLAN tunnel decapsulation, before RSS — so the NIC offloads
// that fragmentation breaks work again on the reassembled packets.
package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/defrag"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/swdriver"
)

func buildFrame(size int, sport uint16) []byte {
	n := size - netpkt.EthHeaderLen - netpkt.IPv4HeaderLen - netpkt.UDPHeaderLen
	udp := netpkt.UDP{SrcPort: sport, DstPort: 5201, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), make([]byte, n)...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), ID: sport,
		Proto: netpkt.ProtoUDP, Src: netpkt.IPFrom(1), Dst: netpkt.IPFrom(2)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(1), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

func vxlanEncap(inner []byte, vni uint32) []byte {
	return netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(22), Src: netpkt.MACFrom(21)},
		netpkt.IPFrom(21), netpkt.IPFrom(22), 41000, netpkt.VXLANPort,
		append(netpkt.VXLAN{VNI: vni}.Marshal(nil), inner...))
}

func main() {
	rp := flexdriver.NewRemotePair()
	srv := rp.Server
	esw := srv.NIC.ESwitch()

	// The defragmentation AFU behind FLD.
	srv.RT.CreateEthTxQueue(0, nil)
	afu := defrag.NewAFU(srv.FLD, srv.Engine(), 10*flexdriver.Millisecond, 1024)
	ecp := flexdriver.NewEControlPlane(srv.RT)

	// Pipeline: (1) NIC VXLAN decap offload, (2) fragments detour to the
	// accelerator, (3) reassembled packets resume at the app table where
	// the host receives them.
	const appTable = 40
	vni := uint32(42)
	esw.AddRule(0, flexdriver.Rule{
		Match:  flexdriver.Match{VNI: &vni},
		Action: flexdriver.Action{Decap: true, Count: "vxlan-decap", ToTable: intp(20)},
	})
	esw.AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToTable: intp(20)}})
	ecp.InstallAccelerate(flexdriver.AccelerateSpec{
		Table:     20,
		Match:     flexdriver.Match{IsFragment: boolp(true)},
		Context:   7,
		NextTable: appTable,
	})
	esw.AddRule(20, flexdriver.Rule{Action: flexdriver.Action{ToTable: intp(appTable)}})
	srv.RT.Start()

	// Host application queue.
	app := srv.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 128, RxEntries: 128})
	esw.AddRule(appTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: app.RQ()}})
	delivered, fragmentsSeen := 0, 0
	app.OnReceive = func(frame []byte, md swdriver.RxMeta) {
		delivered++
		_, ipb, _ := netpkt.ParseEth(frame)
		if h, _, err := netpkt.ParseIPv4(ipb); err == nil && h.IsFragment() {
			fragmentsSeen++
		}
	}

	// Client: send 50 large packets, pre-fragmented to a 1450 B route
	// MTU and VXLAN-encapsulated (the mobile-traffic pattern the paper
	// motivates with).
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	sentFragments := 0
	for i := 0; i < 50; i++ {
		frame := buildFrame(1500, uint16(30000+i))
		frags, err := netpkt.FragmentEth(frame, 1400)
		if err != nil {
			panic(err)
		}
		for _, f := range frags {
			port.Send(vxlanEncap(f, 42))
			sentFragments++
		}
	}
	rp.Run()

	fmt.Printf("sent: 50 packets as %d VXLAN-encapsulated fragments\n", sentFragments)
	fmt.Printf("NIC decapsulated: %d (hardware tunnel offload)\n", esw.Counters["vxlan-decap"])
	fmt.Printf("accelerator reassembled: %d datagrams (forwarded %d)\n",
		afu.Reassembler().Completed, afu.Forwarded)
	fmt.Printf("application received: %d packets, %d of them still fragmented\n",
		delivered, fragmentsSeen)
	fmt.Printf("=> RSS and L4 offloads see whole packets again\n")
}

func intp(v int) *int    { return &v }
func boolp(v bool) *bool { return &v }
