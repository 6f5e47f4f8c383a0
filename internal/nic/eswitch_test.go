package nic

import (
	"testing"

	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

func u16(v uint16) *uint16 { return &v }
func u32(v uint32) *uint32 { return &v }
func u8v(v uint8) *uint8   { return &v }
func bp(v bool) *bool      { return &v }
func ipp(v netpkt.IP) *netpkt.IP {
	return &v
}

func parseView(frame []byte, flowTag uint32) *pktView {
	v := &pktView{}
	v.parse(frame, flowTag)
	return v
}

// encapVXLAN wraps an inner frame for tests.
func encapVXLAN(inner []byte, vni uint32, srcID, dstID int) []byte {
	vx := netpkt.VXLAN{VNI: vni}
	l5 := append(vx.Marshal(nil), inner...)
	udp := netpkt.UDP{SrcPort: 33333, DstPort: netpkt.VXLANPort, Length: uint16(netpkt.UDPHeaderLen + len(l5))}
	l4 := append(udp.Marshal(nil), l5...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: netpkt.IPFrom(srcID), Dst: netpkt.IPFrom(dstID)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(dstID), Src: netpkt.MACFrom(srcID), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

func TestMatchFields(t *testing.T) {
	frame := buildFrame(1, 2, 1111, 2222, 100)
	v := parseView(frame, 42)
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"wildcard", Match{}, true},
		{"ethertype", Match{EtherType: u16(netpkt.EtherTypeIPv4)}, true},
		{"ethertype-miss", Match{EtherType: u16(0x86dd)}, false},
		{"proto", Match{Proto: u8v(netpkt.ProtoUDP)}, true},
		{"proto-miss", Match{Proto: u8v(netpkt.ProtoTCP)}, false},
		{"dstport", Match{DstPort: u16(2222)}, true},
		{"srcport-miss", Match{SrcPort: u16(9)}, false},
		{"srcip", Match{SrcIP: ipp(netpkt.IPFrom(1))}, true},
		{"dstip-miss", Match{DstIP: ipp(netpkt.IPFrom(9))}, false},
		{"notfrag", Match{IsFragment: bp(false)}, true},
		{"frag-miss", Match{IsFragment: bp(true)}, false},
		{"flowtag", Match{FlowTag: u32(42)}, true},
		{"flowtag-miss", Match{FlowTag: u32(41)}, false},
	}
	for _, c := range cases {
		if got := c.m.Matches(v); got != c.want {
			t.Errorf("%s: match=%v want %v", c.name, got, c.want)
		}
	}
}

func TestMatchVNI(t *testing.T) {
	inner := buildFrame(3, 4, 7, 8, 64)
	outer := encapVXLAN(inner, 0x1234, 1, 2)
	v := parseView(outer, 0)
	if !(Match{VNI: u32(0x1234)}).Matches(v) {
		t.Fatal("VNI match failed")
	}
	if (Match{VNI: u32(0x9999)}).Matches(v) {
		t.Fatal("wrong VNI matched")
	}
}

func TestFragmentHasNoL4Match(t *testing.T) {
	frame := buildFrame(1, 2, 1111, 2222, 3000)
	frags, err := netpkt.FragmentEth(frame, 1500)
	if err != nil || len(frags) < 2 {
		t.Fatalf("fragmentation failed: %v", err)
	}
	// First fragment still exposes L4 ports; later ones must not.
	v1 := parseView(frags[1], 0)
	if (Match{DstPort: u16(2222)}).Matches(v1) {
		t.Fatal("non-first fragment matched on L4 port")
	}
	if !(Match{IsFragment: bp(true)}).Matches(v1) {
		t.Fatal("fragment not detected")
	}
}

func TestVXLANDecapThenDeliver(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	// Replace default rule: decap VXLAN traffic before delivery.
	b.nic.ESwitch().ClearTable(0)
	rq := drq.rq
	b.nic.ESwitch().AddRule(0, Rule{
		Match:  Match{DstPort: u16(netpkt.VXLANPort)},
		Action: Action{Decap: true, Count: "decap", ToRQ: rq},
	})
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{Drop: true}})
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)

	inner := buildFrame(5, 6, 777, 888, 200)
	outer := encapVXLAN(inner, 99, 1, 2)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, outer)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(outer))})
	dsq.doorbell()
	eng.Run()

	if len(*cqes) != 1 {
		t.Fatalf("CQEs = %d", len(*cqes))
	}
	if int((*cqes)[0].ByteCount) != len(inner) {
		t.Fatalf("delivered %d bytes, want inner %d", (*cqes)[0].ByteCount, len(inner))
	}
	got := b.mem.ReadAt(bufBase, len(inner))
	if string(got) != string(inner) {
		t.Fatal("decapsulated frame mismatch")
	}
	if b.nic.ESwitch().Counters["decap"] != 1 {
		t.Fatal("counter not incremented")
	}
}

func TestFlowTagStamping(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	b.nic.ESwitch().ClearTable(0)
	b.nic.ESwitch().AddRule(0, Rule{
		Match:  Match{SrcIP: ipp(netpkt.IPFrom(1))},
		Action: Action{SetFlowTag: u32(7), ToRQ: drq.rq},
	})
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)
	frame := buildFrame(1, 2, 5, 6, 64)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	eng.Run()
	if len(*cqes) != 1 || (*cqes)[0].FlowTag != 7 {
		t.Fatalf("flow tag not stamped: %+v", *cqes)
	}
}

func TestTIRSpreadsByRSS(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, _, _, _ := setupEthTxRx(t, a, b, 0)

	// Build 4 RQs under one TIR.
	var rqs []*RQ
	var perRQ [4]int
	cqRing := b.mem.Alloc(1024*CQESize, 64)
	for i := 0; i < 4; i++ {
		i := i
		cq := b.nic.CreateCQ(CQConfig{Ring: b.fab.AddrOf(b.mem, cqRing), Size: 1024,
			OnCQE: func(CQE) { perRQ[i]++ }})
		ring := b.mem.Alloc(64*RecvWQESize, 64)
		rq := b.nic.CreateRQ(RQConfig{Ring: b.fab.AddrOf(b.mem, ring), Size: 64, CQ: cq})
		d := &driverRQ{nd: b, rq: rq, ring: ring}
		buf := b.mem.Alloc(64*2048, 4096)
		for j := 0; j < 32; j++ {
			d.post(b.fab.AddrOf(b.mem, buf+uint64(j)*2048), 2048, 0)
		}
		rqs = append(rqs, rq)
	}
	b.nic.ESwitch().ClearTable(0)
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{ToTIR: &TIR{RQs: rqs}}})

	// 64 distinct flows.
	fbuf := a.mem.Alloc(1<<20, 64)
	off := uint64(0)
	for f := 0; f < 64; f++ {
		frame := buildFrame(1, 2, uint16(1000+f), 80, 64)
		a.mem.WriteAt(fbuf+off, frame)
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf+off), Len: uint32(len(frame))})
		off += 256
	}
	dsq.doorbell()
	eng.Run()

	total, nonEmpty := 0, 0
	for _, c := range perRQ {
		total += c
		if c > 0 {
			nonEmpty++
		}
	}
	if total != 64 {
		t.Fatalf("delivered %d, want 64", total)
	}
	if nonEmpty < 3 {
		t.Fatalf("RSS spread poor: %v", perRQ)
	}
}

func TestHairpinVPortLoopback(t *testing.T) {
	// Single node: traffic sent by vport A loops back to vport B's RQ —
	// the paper's local experiment topology.
	eng := sim.NewEngine()
	a := newNode(t, eng)

	var cqes []CQE
	cqRing := a.mem.Alloc(64*CQESize, 64)
	rcq := a.nic.CreateCQ(CQConfig{Ring: a.fab.AddrOf(a.mem, cqRing), Size: 64,
		OnCQE: func(c CQE) { cqes = append(cqes, c) }})
	rqRing := a.mem.Alloc(64*RecvWQESize, 64)
	rq := a.nic.CreateRQ(RQConfig{Ring: a.fab.AddrOf(a.mem, rqRing), Size: 64, CQ: rcq})
	drq := &driverRQ{nd: a, rq: rq, ring: rqRing}

	vpA := a.nic.ESwitch().AddVPort()
	vpB := a.nic.ESwitch().AddVPort()
	a.nic.ESwitch().AddRule(vpA.EgressTable, Rule{Action: Action{ToVPort: &vpB.ID}})
	a.nic.ESwitch().AddRule(vpB.IngressTable, Rule{Action: Action{ToRQ: rq}})

	scqRing := a.mem.Alloc(64*CQESize, 64)
	scq := a.nic.CreateCQ(CQConfig{Ring: a.fab.AddrOf(a.mem, scqRing), Size: 64})
	sqRing := a.mem.Alloc(64*SendWQESize, 64)
	sq := a.nic.CreateSQ(SQConfig{Ring: a.fab.AddrOf(a.mem, sqRing), Size: 64, CQ: scq, VPort: vpA})
	dsq := &driverSQ{nd: a, sq: sq, ring: sqRing}

	buf := a.mem.Alloc(4096, 64)
	drq.post(a.fab.AddrOf(a.mem, buf), 2048, 0)
	frame := buildFrame(1, 1, 10, 20, 300)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Signal: true, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	eng.Run()

	if len(cqes) != 1 || int(cqes[0].ByteCount) != len(frame) {
		t.Fatalf("hairpin delivery failed: %v", cqes)
	}
	if a.nic.Stats.TxPackets != 1 {
		t.Fatalf("tx counter = %d", a.nic.Stats.TxPackets)
	}
}

func TestPolicerDrops(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	// Policer admitting ~one 150 B packet then empty (tiny burst).
	pol := sim.NewTokenBucket(eng, 1*sim.Gbps, 200)
	b.nic.ESwitch().ClearTable(0)
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{Policer: pol, ToRQ: drq.rq}})
	for i := 0; i < 8; i++ {
		drq.post(b.fab.AddrOf(b.mem, bufBase+uint64(i)*2048), 2048, 0)
	}
	frame := buildFrame(1, 2, 3, 4, 150)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	for i := 0; i < 4; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	dsq.doorbell()
	eng.Run()
	if len(*cqes) >= 4 {
		t.Fatalf("policer admitted everything (%d)", len(*cqes))
	}
	if b.nic.Stats.Drops["policer"] == 0 {
		t.Fatal("no policer drops recorded")
	}
}

func TestGotoTableChains(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	b.nic.ESwitch().ClearTable(0)
	next := 50
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{SetFlowTag: u32(5), ToTable: &next}})
	b.nic.ESwitch().AddRule(50, Rule{Match: Match{FlowTag: u32(5)}, Action: Action{ToRQ: drq.rq}})
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)
	frame := buildFrame(1, 2, 3, 4, 80)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	eng.Run()
	if len(*cqes) != 1 || (*cqes)[0].FlowTag != 5 {
		t.Fatalf("goto-table pipeline failed: %v", *cqes)
	}
}

func TestTableLoopProtection(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, _, _, _ := setupEthTxRx(t, a, b, 0)
	b.nic.ESwitch().ClearTable(0)
	zero := 0
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{ToTable: &zero}})
	frame := buildFrame(1, 2, 3, 4, 80)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	eng.Run()
	if b.nic.Stats.Drops["table-loop"] != 1 {
		t.Fatalf("loop not detected: %v", b.nic.Stats.Drops)
	}
}

func TestEgressShaperDelaysTraffic(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	// Shape sender vport egress to 1 Gbps.
	sh := sim.NewTokenBucket(eng, 1*sim.Gbps, 1500)
	vp := dsq.sq.VPort
	a.nic.ESwitch().ClearTable(vp.EgressTable)
	a.nic.ESwitch().AddRule(vp.EgressTable, Rule{Action: Action{Shaper: sh, ToWire: true}})
	for i := 0; i < 32; i++ {
		drq.post(b.fab.AddrOf(b.mem, bufBase+uint64(i)*2048), 2048, 0)
	}
	frame := buildFrame(1, 2, 3, 4, 1200)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	const n = 16
	for i := 0; i < n; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	dsq.doorbell()
	eng.Run()
	if len(*cqes) != n {
		t.Fatalf("delivered %d, want %d (shaper must delay, not drop)", len(*cqes), n)
	}
	// 16 x ~1250B at 1 Gbps ~= 160 us minimum.
	if eng.Now() < 100*sim.Microsecond {
		t.Fatalf("finished too fast for 1 Gbps shaping: %v", eng.Now())
	}
}

// TestEncapAction: the eSwitch prepends a prebuilt outer header (the
// reverse of the decap offload) and the result parses as the tunnel.
func TestEncapAction(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)

	inner := buildFrame(5, 6, 100, 200, 120)
	// Outer headers for a VXLAN tunnel around `inner`.
	vx := netpkt.VXLAN{VNI: 7}
	vxb := vx.Marshal(nil)
	udp := netpkt.UDP{SrcPort: 1, DstPort: netpkt.VXLANPort,
		Length: uint16(netpkt.UDPHeaderLen + len(vxb) + len(inner))}
	udpb := udp.Marshal(nil)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(udpb) + len(vxb) + len(inner)),
		Proto: netpkt.ProtoUDP, Src: netpkt.IPFrom(11), Dst: netpkt.IPFrom(12)}
	ipb := ip.Marshal(nil)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(12), Src: netpkt.MACFrom(11), EtherType: netpkt.EtherTypeIPv4}
	outer := append(append(append(eth.Marshal(nil), ipb...), udpb...), vxb...)

	// Sender-side egress: encapsulate everything leaving the vport.
	vp := dsq.sq.VPort
	a.nic.ESwitch().ClearTable(vp.EgressTable)
	a.nic.ESwitch().AddRule(vp.EgressTable, Rule{Action: Action{Encap: outer, ToWire: true}})
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)

	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, inner)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(inner))})
	dsq.doorbell()
	eng.Run()

	if len(*cqes) != 1 {
		t.Fatalf("CQEs = %d (drops %v)", len(*cqes), b.nic.Stats.Drops)
	}
	got := b.mem.ReadAt(bufBase, int((*cqes)[0].ByteCount))
	v := parseView(got, 0)
	if !v.vxlan || v.vni != 7 {
		t.Fatalf("received frame is not the VXLAN encapsulation")
	}
}

// TestWireLossCounters: the wire's counters reflect injected loss.
func TestWireLossCounters(t *testing.T) {
	eng, a, b, w := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	for i := 0; i < 8; i++ {
		drq.post(b.fab.AddrOf(b.mem, bufBase+uint64(i)*2048), 2048, 0)
	}
	n := 0
	w.Loss = func(int, []byte) bool { n++; return n%2 == 0 } // drop every 2nd
	frame := buildFrame(1, 2, 3, 4, 100)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	for i := 0; i < 8; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	dsq.doorbell()
	eng.Run()
	if w.Sent[0] != 8 || w.Delivered[0] != 4 {
		t.Fatalf("wire counters sent=%d delivered=%d", w.Sent[0], w.Delivered[0])
	}
	if len(*cqes) != 4 {
		t.Fatalf("delivered frames = %d, want 4", len(*cqes))
	}
	if w.rate != 25*sim.Gbps {
		t.Fatalf("wire rate = %v", w.rate)
	}
}
