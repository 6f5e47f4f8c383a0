package flexdriver

import (
	"fmt"
	"strings"
	"testing"

	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/swdriver"
)

// swapUDPFrame reverses a UDP frame in place (Ethernet addresses, IPv4
// addresses, UDP ports) so an echo reply is addressed to its sender and
// routes back through the switch instead of hairpinning.
func swapUDPFrame(f []byte) {
	for i := 0; i < 6; i++ {
		f[i], f[6+i] = f[6+i], f[i]
	}
	for i := 0; i < 4; i++ {
		f[26+i], f[30+i] = f[30+i], f[26+i]
	}
	f[34], f[36] = f[36], f[34]
	f[35], f[37] = f[37], f[35]
}

// clusterUDPFrame builds a UDP frame between two racked NICs.
func clusterUDPFrame(src, dst *NIC, sport, dport uint16, size int) []byte {
	n := size - netpkt.EthHeaderLen - netpkt.IPv4HeaderLen - netpkt.UDPHeaderLen
	payload := make([]byte, n)
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), payload...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: src.IP, Dst: dst.IP}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: dst.MAC, Src: src.MAC, EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

// TestClusterEchoSmoke races two clients against a dual-FLD server
// behind the ToR switch — the smallest instance of the §9 scale-out
// topology. Every frame must come back to the client that sent it, RSS
// must touch both cores, and the switch must learn all three stations.
func TestClusterEchoSmoke(t *testing.T) {
	cl := NewCluster()
	srv := cl.AddInnova("server")
	_, rt2 := srv.AddFLD(srv.FLD.Config())

	var rqs []*nic.RQ
	for _, rt := range []*Runtime{srv.RT, rt2} {
		rt.StartEth()
		f := rt.FLD()
		f.SetHandler(HandlerFunc(func(data []byte, md Metadata) {
			out := append([]byte(nil), data...)
			swapUDPFrame(out)
			if err := f.Send(0, out, md); err != nil {
				t.Errorf("fld send: %v", err)
			}
		}))
		rqs = append(rqs, rt.RQ())
	}
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToTIR: &nic.TIR{RQs: rqs}}})

	const clients = 2
	const perClient = 120
	const frameSize = 512
	received := make([]int, clients)
	for ci := 0; ci < clients; ci++ {
		h := cl.AddHost(fmt.Sprintf("client%d", ci))
		if cl.PortOf(h.NIC) == nil {
			t.Fatalf("client%d has no switch port", ci)
		}
		port := h.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
		ci := ci
		port.OnReceive = func([]byte, swdriver.RxMeta) { received[ci]++ }

		// Two flows per RSS bucket so both cores see this client.
		per := 2
		count := make([]int, len(rqs))
		var frames [][]byte
		for sport := uint16(4000); len(frames) < per*len(rqs) && sport < 60000; sport++ {
			f := clusterUDPFrame(h.NIC, srv.NIC, sport, 7777, frameSize)
			if b := int(netpkt.RSSHash(f)) % len(rqs); count[b] < per {
				count[b]++
				frames = append(frames, f)
			}
		}
		// 4 Gbit/s per client (512 B / 1.024 us): well under the server
		// port, so the bounded switch queues must not drop anything.
		interval := 1024 * Nanosecond
		heng := h.Engine()
		sent := 0
		var tick func()
		tick = func() {
			if sent >= perClient {
				return
			}
			port.Send(frames[sent%len(frames)])
			sent++
			heng.After(interval, tick)
		}
		heng.After(Duration(ci)*interval/clients, tick)
	}
	cl.Run()

	for ci, got := range received {
		if got != perClient {
			t.Errorf("client%d received %d echoes, want %d (switch stats %+v)",
				ci, got, perClient, cl.Switch().Stats)
		}
	}
	rx1, rx2 := srv.RT.FLD().Stats.RxPackets, rt2.FLD().Stats.RxPackets
	if rx1 == 0 || rx2 == 0 || rx1+rx2 != clients*perClient {
		t.Errorf("per-FLD rx = %d/%d, want both cores busy summing to %d", rx1, rx2, clients*perClient)
	}
	if n := cl.Switch().FDBSize(); n != clients+1 {
		t.Errorf("switch learned %d stations, want %d", n, clients+1)
	}
	var drops int64
	for _, p := range cl.Switch().Ports() {
		drops += p.Counters.TailDrops
	}
	if drops != 0 {
		t.Errorf("switch tail-dropped %d frames at an uncongested load", drops)
	}
	if pending := cl.Pending(); pending != 0 {
		t.Errorf("engine left %d events pending after Run", pending)
	}
}

// TestAddFLDUsesConfiguredLink pins the regression where AddFLD attached
// extra cores with the hardcoded Gen3x8 default instead of the node's
// configured PCIe link.
func TestAddFLDUsesConfiguredLink(t *testing.T) {
	link := pcie.Gen3x8()
	link.Lanes = 16
	inn := NewLocalInnova(WithLink(link))
	f2, _ := inn.AddFLD(inn.FLD.Config())

	// A 4 KiB write into host memory serializes on the writing core's
	// link, so an added core on the node's link takes exactly as long as
	// the built-in core, and a core on the default 8 lanes does not.
	writeTime := func(inn *Innova, core *FLD) Duration {
		eng := inn.Engine()
		start, end := eng.Now(), Time(0)
		inn.Fab.PortOf(core).Write(inn.Fab.AddrOf(inn.Mem, 0), make([]byte, 4096), func() { end = eng.Now() })
		inn.Run()
		return end - start
	}
	builtIn := writeTime(inn, inn.FLD)
	if narrow := NewLocalInnova(); writeTime(narrow, narrow.FLD) == builtIn {
		t.Fatalf("a %d-lane core writes as fast as an 8-lane one: the link is not in effect", link.Lanes)
	}
	if added := writeTime(inn, f2); added != builtIn {
		t.Fatalf("AddFLD core writes 4 KiB in %v, the built-in core in %v: not the node's configured link", added, builtIn)
	}
}

// TestAddFLDTelemetryAndFaults verifies that an added core lands in the
// node's registry under its own fld<N>/pcie scopes and that the node's
// fault plan extends to it.
func TestAddFLDTelemetryAndFaults(t *testing.T) {
	reg := NewRegistry()
	plan := NewFaultPlan(1, FaultsConfig{AccelStall: 1.0})
	inn := NewLocalInnova(WithTelemetry(reg), WithFaults(plan))
	_, rt2 := inn.AddFLD(inn.FLD.Config())
	rt2.CreateEthTxQueue(0, nil)

	// Hairpin the host port into the added core (cf. TestFLDELocalEcho).
	port := inn.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	esw := inn.NIC.ESwitch()
	fldVP := rt2.VPort()
	hostVP := port.VPort()
	esw.ClearTable(hostVP.EgressTable)
	esw.AddRule(hostVP.EgressTable, Rule{Action: Action{ToVPort: &fldVP.ID}})
	esw.AddRule(fldVP.IngressTable, Rule{Action: Action{ToRQ: rt2.RQ()}})
	rt2.Start()

	const n = 20
	frame := buildUDPFrame(1, 1, 9, 10, 512)
	for i := 0; i < n; i++ {
		port.Send(frame)
	}
	inn.Run()

	// The plan's accelerator hook must have fired on the added core:
	// AccelStall=1 swallows every delivered frame.
	if plan.Injected.AccelStalls != n {
		t.Fatalf("AccelStalls = %d, want %d", plan.Injected.AccelStalls, n)
	}
	// The added core registers under its own scopes, separate from the
	// built-in core's innova/fld and innova/pcie/fld paths.
	snap := reg.Snapshot()
	fld1, pcie1 := false, false
	for p := range snap.Counters {
		if strings.HasPrefix(p, "innova/fld1/") {
			fld1 = true
		}
		if strings.HasPrefix(p, "innova/pcie/fld1/") {
			pcie1 = true
		}
	}
	if !fld1 || !pcie1 {
		t.Fatalf("missing added-core scopes: innova/fld1/=%v innova/pcie/fld1/=%v", fld1, pcie1)
	}
}
