package nic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// node bundles one simulated host: memory + NIC on a private fabric, with
// the test acting as the driver.
type node struct {
	eng  *sim.Engine
	fab  *pcie.Fabric
	mem  *hostmem.Memory
	host *pcie.Port
	nic  *NIC
	bar  uint64
}

func newNode(t *testing.T, eng *sim.Engine) *node {
	t.Helper()
	fab := pcie.NewFabric(eng)
	mem := hostmem.New("hostmem", 1<<26)
	host := fab.Attach(mem, pcie.Gen3x8())
	n := New("nic", eng, DefaultParams())
	n.AttachPCIe(fab, pcie.Gen3x8())
	return &node{eng: eng, fab: fab, mem: mem, host: host, nic: n,
		bar: fab.PortOf(n).Base()}
}

// driverSQ is a minimal software send queue living in host memory.
type driverSQ struct {
	nd   *node
	sq   *SQ
	ring uint64
	pi   uint32
}

func (d *driverSQ) post(wqe SendWQE) {
	wqe.Index = uint16(d.pi)
	slot := uint64(d.pi) % uint64(d.sq.Size)
	d.nd.mem.WriteAt(d.ring+slot*SendWQESize, wqe.Marshal())
	d.pi++
}

func (d *driverSQ) doorbell() {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], d.pi)
	d.nd.fab.Write(d.nd.bar+SQDoorbellOffset(d.sq.ID), b[:])
}

// driverRQ posts receive buffers from host memory.
type driverRQ struct {
	nd   *node
	rq   *RQ
	ring uint64
	pi   uint32
}

func (d *driverRQ) post(addr uint64, size uint32, strideLog2 uint8) {
	slot := uint64(d.pi) % uint64(d.rq.Size)
	w := RecvWQE{Addr: addr, Len: size, StrideLog2: strideLog2}
	d.nd.mem.WriteAt(d.ring+slot*RecvWQESize, w.Marshal())
	d.pi++
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], d.pi)
	d.nd.fab.Write(d.nd.bar+RQDoorbellOffset(d.rq.ID), b[:])
}

func buildFrame(srcID, dstID int, sport, dport uint16, n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), payload...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: netpkt.IPFrom(srcID), Dst: netpkt.IPFrom(dstID)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(dstID), Src: netpkt.MACFrom(srcID), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

// twoNodes builds sender and receiver hosts wired back to back at 25 Gbps.
func twoNodes(t *testing.T) (*sim.Engine, *node, *node, *Wire) {
	eng := sim.NewEngine()
	a := newNode(t, eng)
	b := newNode(t, eng)
	w := ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	return eng, a, b, w
}

// setupEthTxRx wires a raw-Ethernet TX queue on a and an RX queue on b
// with a steering rule delivering everything to it. Returns helpers and a
// channel-free CQE capture.
func setupEthTxRx(t *testing.T, a, b *node, stride int) (*driverSQ, *driverRQ, *[]CQE, uint64) {
	t.Helper()
	// Sender: SQ + CQ in host memory.
	scqRing := a.mem.Alloc(64*CQESize, 64)
	scq := a.nic.CreateCQ(CQConfig{Ring: a.fab.AddrOf(a.mem, scqRing), Size: 64})
	sqRing := a.mem.Alloc(64*SendWQESize, 64)
	vp := a.nic.ESwitch().AddVPort()
	// vport egress: everything to wire.
	a.nic.ESwitch().AddRule(vp.EgressTable, Rule{Action: Action{ToWire: true}})
	sq := a.nic.CreateSQ(SQConfig{Ring: a.fab.AddrOf(a.mem, sqRing), Size: 64, CQ: scq, VPort: vp})

	// Receiver: CQ + RQ, buffers in host memory.
	var cqes []CQE
	rcqRing := b.mem.Alloc(256*CQESize, 64)
	rcq := b.nic.CreateCQ(CQConfig{Ring: b.fab.AddrOf(b.mem, rcqRing), Size: 256,
		OnCQE: func(c CQE) { cqes = append(cqes, c) }})
	rqRing := b.mem.Alloc(64*RecvWQESize, 64)
	rq := b.nic.CreateRQ(RQConfig{Ring: b.fab.AddrOf(b.mem, rqRing), Size: 64, CQ: rcq, StrideSize: stride})
	// Steering: wire ingress table 0 -> this RQ.
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: rq}})

	bufBase := b.mem.Alloc(1<<20, 4096)
	return &driverSQ{nd: a, sq: sq, ring: sqRing},
		&driverRQ{nd: b, rq: rq, ring: rqRing}, &cqes, bufBase
}

func TestEthTxRxEndToEnd(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)

	// Post one 2 KiB receive buffer (single-packet).
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)

	frame := buildFrame(1, 2, 1000, 2000, 600)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Signal: true, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	eng.Run()

	if len(*cqes) != 1 {
		t.Fatalf("rx CQEs = %d, want 1", len(*cqes))
	}
	c := (*cqes)[0]
	if c.Opcode != CQERecv || int(c.ByteCount) != len(frame) || !c.ChecksumOK {
		t.Fatalf("rx CQE: %+v", c)
	}
	got := b.mem.ReadAt(bufBase, len(frame))
	if !bytes.Equal(got, frame) {
		t.Fatal("frame corrupted in flight")
	}
	if a.nic.Stats.TxPackets != 1 || b.nic.Stats.RxPackets != 1 {
		t.Fatalf("counters: tx=%d rx=%d", a.nic.Stats.TxPackets, b.nic.Stats.RxPackets)
	}
	if dsq.sq.CI() != 1 {
		t.Fatalf("SQ CI = %d", dsq.sq.CI())
	}
}

func TestTxCompletionSignaling(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, _, bufBase := setupEthTxRx(t, a, b, 0)
	for i := 0; i < 8; i++ {
		drq.post(b.fab.AddrOf(b.mem, bufBase+uint64(i)*2048), 2048, 0)
	}
	var txCQEs int
	// Re-create the send CQ callback by wrapping: easier to count via CQ PI.
	frame := buildFrame(1, 2, 1, 2, 128)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	for i := 0; i < 8; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Signal: i%4 == 3, // selective signalling 1-in-4
			Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	dsq.doorbell()
	eng.Run()
	txCQEs = int(dsq.sq.CQ.pi)
	if txCQEs != 2 {
		t.Fatalf("tx CQEs = %d, want 2 (selective signalling)", txCQEs)
	}
	if dsq.sq.CI() != 8 {
		t.Fatalf("CI = %d, want 8", dsq.sq.CI())
	}
}

func TestWQEByMMIO(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)

	frame := buildFrame(1, 2, 5, 6, 256)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	w := SendWQE{Opcode: OpSend, Signal: true, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))}
	// Push the whole 64B WQE through the doorbell page: no ring read.
	a.fab.Write(a.bar+SQDoorbellOffset(dsq.sq.ID), w.Marshal())
	eng.Run()
	if len(*cqes) != 1 {
		t.Fatalf("rx CQEs = %d, want 1", len(*cqes))
	}
}

// TestRegisterRead: the BAR is write-only, so a register read completes
// with zeros, and a crashed NIC does not answer at all — the requester's
// completion timeout is what a driver sees of a dead device.
func TestRegisterRead(t *testing.T) {
	eng := sim.NewEngine()
	nd := newNode(t, eng)
	var got pcie.Completion
	read := func() {
		nd.host.Read(nd.bar+SQDoorbellOffset(0), 8, func(c pcie.Completion) { got, got.Data = c, bytes.Clone(c.Data) })
		eng.Run()
	}
	if read(); !got.OK() || !bytes.Equal(got.Data, make([]byte, 8)) {
		t.Fatalf("register read: status %v data %x, want success and eight zero bytes", got.Status, got.Data)
	}
	nd.nic.Crash()
	if read(); got.Status != pcie.CplTimedOut {
		t.Fatalf("read of a crashed NIC: status %v, want a completion timeout", got.Status)
	}
}

func TestMPRQStrideAccounting(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 256)

	// One 2 KiB MPRQ buffer = 8 strides of 256 B.
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 8)

	// Send 4 packets of ~300 B: each takes 2 strides, so all 4 fit.
	fbuf := a.mem.Alloc(4096, 64)
	frame := buildFrame(1, 2, 9, 10, 258) // 300 B on the wire
	a.mem.WriteAt(fbuf, frame)
	for i := 0; i < 4; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	dsq.doorbell()
	eng.Run()

	if len(*cqes) != 4 {
		t.Fatalf("rx CQEs = %d, want 4", len(*cqes))
	}
	// Packets must land at 2-stride spacing within one buffer.
	base := b.fab.AddrOf(b.mem, bufBase)
	for i, c := range *cqes {
		want := base + uint64(i)*512
		if c.Addr != want {
			t.Fatalf("packet %d at %#x, want %#x", i, c.Addr, want)
		}
	}
	if drq.rq.Posted() != 0 {
		t.Fatalf("posted buffers left: %d", drq.rq.Posted())
	}
}

func TestMPRQFragmentationSkipsToNextBuffer(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 256)
	// Two 1 KiB buffers = 4 strides each.
	drq.post(b.fab.AddrOf(b.mem, bufBase), 1024, 8)
	drq.post(b.fab.AddrOf(b.mem, bufBase+4096), 1024, 8)

	fbuf := a.mem.Alloc(4096, 64)
	frame := buildFrame(1, 2, 9, 10, 700) // ~742 B -> 3 strides
	a.mem.WriteAt(fbuf, frame)
	for i := 0; i < 2; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	dsq.doorbell()
	eng.Run()

	if len(*cqes) != 2 {
		t.Fatalf("rx CQEs = %d, want 2", len(*cqes))
	}
	// Second packet cannot fit the remaining 1 stride: next buffer.
	if (*cqes)[1].Addr != b.fab.AddrOf(b.mem, bufBase+4096) {
		t.Fatalf("second packet at %#x", (*cqes)[1].Addr)
	}
	if drq.rq.WastedBytes != 256 {
		t.Fatalf("wasted bytes = %d, want 256", drq.rq.WastedBytes)
	}
}

func TestRxDropWithoutBuffers(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, _, cqes, _ := setupEthTxRx(t, a, b, 0)
	frame := buildFrame(1, 2, 9, 10, 100)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	eng.Run()
	if len(*cqes) != 0 {
		t.Fatal("packet delivered without posted buffers")
	}
	if b.nic.Stats.Drops["rq-no-buffers"] != 1 {
		t.Fatalf("drops: %v", b.nic.Stats.Drops)
	}
}

func TestInlineWQE(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)
	// A short raw frame inlined in the descriptor (no data gather read).
	tiny := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	dsq.post(SendWQE{Opcode: OpSendInl, Inline: tiny})
	dsq.doorbell()
	eng.Run()
	if len(*cqes) != 1 || int((*cqes)[0].ByteCount) != len(tiny) {
		t.Fatalf("inline delivery failed: %v", *cqes)
	}
}

func TestStaleDoorbellIgnored(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)
	frame := buildFrame(1, 2, 3, 4, 64)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	dsq.doorbell()
	// Replay an old PI: must not re-execute.
	var old [4]byte
	binary.BigEndian.PutUint32(old[:], 0)
	a.fab.Write(a.bar+SQDoorbellOffset(dsq.sq.ID), old[:])
	eng.Run()
	if len(*cqes) != 1 {
		t.Fatalf("stale doorbell replayed work: %d CQEs", len(*cqes))
	}
}
