package nic

import (
	"bytes"
	"math/rand"
	"testing"

	"flexdriver/internal/sim"
)

// rdmaPair builds two connected RC QPs across a wire, with the receiver's
// SRQ backed by MPRQ buffers in host memory. Returns helpers plus the
// received-message collector (reassembled from per-packet CQEs).
type rdmaHarness struct {
	eng      *sim.Engine
	a, b     *node
	wire     *Wire
	qpA, qpB *QP
	sqA      *driverSQ
	// msgs accumulates fully received messages on B, in order.
	msgs *[][]byte
	// sendCQEs counts send completions on A; cqes holds them in arrival
	// order.
	sendCQEs *int
	cqes     *[]CQE
}

func newRDMAHarness(t *testing.T, mtu int) *rdmaHarness {
	t.Helper()
	eng := sim.NewEngine()
	a := newNode(t, eng)
	b := newNode(t, eng)
	w := ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)

	// --- sender side ---
	sendCQEs := 0
	var cqes []CQE
	scqRing := a.mem.Alloc(256*CQESize, 64)
	scq := a.nic.CreateCQ(CQConfig{Ring: a.fab.AddrOf(a.mem, scqRing), Size: 256,
		OnCQE: func(c CQE) { sendCQEs++; cqes = append(cqes, c) }})
	sqRing := a.mem.Alloc(256*SendWQESize, 64)
	sqA := a.nic.CreateSQ(SQConfig{Ring: a.fab.AddrOf(a.mem, sqRing), Size: 256, CQ: scq})
	qpA := a.nic.CreateQP(QPConfig{SQ: sqA, MTU: mtu})

	// --- receiver side ---
	var msgs [][]byte
	var cur []byte
	bufBase := b.mem.Alloc(1<<22, 4096)
	rcqRing := b.mem.Alloc(1024*CQESize, 64)
	rcq := b.nic.CreateCQ(CQConfig{Ring: b.fab.AddrOf(b.mem, rcqRing), Size: 1024,
		OnCQE: func(c CQE) {
			// Reassemble from the packet-level completions, reading the
			// payload back out of the buffer the NIC placed it in. A
			// message's first packet carries FlowTag == ByteCount (the
			// bytes so far), which drops the remains of a message a
			// reconnect cut short.
			base := b.fab.PortOf(b.mem).Base()
			data := b.mem.ReadAt(c.Addr-base, int(c.ByteCount))
			if c.FlowTag == c.ByteCount {
				cur = nil
			}
			cur = append(cur, data...)
			if c.Last {
				msgs = append(msgs, cur)
				cur = nil
			}
		}})
	rqRing := b.mem.Alloc(256*RecvWQESize, 64)
	srq := b.nic.CreateRQ(RQConfig{Ring: b.fab.AddrOf(b.mem, rqRing), Size: 256, CQ: rcq, StrideSize: 256})
	drq := &driverRQ{nd: b, rq: srq, ring: rqRing}
	for i := 0; i < 128; i++ {
		drq.post(b.fab.AddrOf(b.mem, bufBase+uint64(i)*32768), 32768, 8)
	}
	qpB := b.nic.CreateQP(QPConfig{RQ: srq, MTU: mtu})
	ConnectQPs(qpA, qpB)

	return &rdmaHarness{eng: eng, a: a, b: b, wire: w, qpA: qpA, qpB: qpB,
		sqA: &driverSQ{nd: a, sq: sqA, ring: sqRing}, msgs: &msgs, sendCQEs: &sendCQEs, cqes: &cqes}
}

func (h *rdmaHarness) sendMessage(data []byte, signal bool) {
	buf := h.a.mem.Alloc(uint64(len(data)+64), 64)
	h.a.mem.WriteAt(buf, data)
	h.sqA.post(SendWQE{Opcode: OpSend, Signal: signal,
		Addr: h.a.fab.AddrOf(h.a.mem, buf), Len: uint32(len(data))})
	h.sqA.doorbell()
}

func TestRDMASingleMessage(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	msg := make([]byte, 700)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	h.sendMessage(msg, true)
	h.eng.Run()
	if len(*h.msgs) != 1 || !bytes.Equal((*h.msgs)[0], msg) {
		t.Fatalf("message not delivered intact (%d msgs)", len(*h.msgs))
	}
	if *h.sendCQEs != 1 {
		t.Fatalf("send completions = %d", *h.sendCQEs)
	}
	if h.qpA.Outstanding() != 0 {
		t.Fatalf("unacked packets: %d", h.qpA.Outstanding())
	}
}

func TestRDMASegmentationBeyondMTU(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	// 5000 B message -> 5 packets; the NIC segments in hardware
	// (paper: "FLD-R uses messages larger than the MTU").
	msg := make([]byte, 5000)
	for i := range msg {
		msg[i] = byte(i)
	}
	h.sendMessage(msg, true)
	h.eng.Run()
	if len(*h.msgs) != 1 || !bytes.Equal((*h.msgs)[0], msg) {
		t.Fatal("segmented message corrupted")
	}
	// 5 data packets on the wire.
	if h.a.nic.Stats.TxPackets != 5 {
		t.Fatalf("tx packets = %d, want 5", h.a.nic.Stats.TxPackets)
	}
}

func TestRDMAManyMessagesInOrder(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	const n = 50
	var want [][]byte
	for i := 0; i < n; i++ {
		msg := make([]byte, 100+i*37)
		for j := range msg {
			msg[j] = byte(i ^ j)
		}
		want = append(want, msg)
		h.sendMessage(msg, i == n-1)
	}
	h.eng.Run()
	if len(*h.msgs) != n {
		t.Fatalf("delivered %d messages, want %d", len(*h.msgs), n)
	}
	for i := range want {
		if !bytes.Equal((*h.msgs)[i], want[i]) {
			t.Fatalf("message %d corrupted or out of order", i)
		}
	}
}

func TestRDMARecoversFromLoss(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	// Drop the 3rd data packet once.
	dropped := false
	count := 0
	h.wire.Loss = func(dir int, frame []byte) bool {
		if dir != 0 {
			return false
		}
		count++
		if count == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	h.sendMessage(msg, true)
	h.eng.Run()
	if !dropped {
		t.Fatal("loss injection never fired")
	}
	if len(*h.msgs) != 1 || !bytes.Equal((*h.msgs)[0], msg) {
		t.Fatal("message not recovered after loss")
	}
	if *h.sendCQEs != 1 {
		t.Fatalf("send completions = %d", *h.sendCQEs)
	}
}

func TestRDMARecoversFromAckLoss(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	// Drop the first ACK (wire direction B->A), forcing timeout retransmit
	// and duplicate suppression at the receiver.
	droppedAcks := 0
	h.wire.Loss = func(dir int, frame []byte) bool {
		if dir != 1 {
			return false
		}
		if bth, _, ok := parseRoCE(frame); ok && bth.Opcode == btAck && droppedAcks == 0 {
			droppedAcks++
			return true
		}
		return false
	}
	msg := []byte("ack loss recovery message")
	h.sendMessage(msg, true)
	h.eng.Run()
	if droppedAcks != 1 {
		t.Fatal("ACK loss never injected")
	}
	if len(*h.msgs) != 1 || !bytes.Equal((*h.msgs)[0], msg) {
		t.Fatalf("message state after ack loss: %d msgs", len(*h.msgs))
	}
	if *h.sendCQEs != 1 || (*h.cqes)[0].Opcode != CQESend || h.qpA.State() != QueueReady {
		t.Fatalf("completions = %v, QP %s; want exactly one send completion on a ready QP: a duplicate must be re-acked",
			*h.cqes, h.qpA.State())
	}
}

// TestRDMAExactlyOnceUnderRandomLoss is the transport's property test:
// under random loss of data and control packets, every message is
// delivered exactly once, in order, uncorrupted.
func TestRDMAExactlyOnceUnderRandomLoss(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		h := newRDMAHarness(t, 512)
		r := rand.New(rand.NewSource(seed))
		h.wire.Loss = func(int, []byte) bool { return r.Intn(100) < 7 }
		const n = 30
		var want [][]byte
		for i := 0; i < n; i++ {
			msg := make([]byte, 50+r.Intn(3000))
			r.Read(msg)
			want = append(want, msg)
			h.sendMessage(msg, true)
		}
		h.eng.Run()
		if len(*h.msgs) != n {
			t.Fatalf("seed %d: delivered %d messages, want %d", seed, len(*h.msgs), n)
		}
		for i := range want {
			if !bytes.Equal((*h.msgs)[i], want[i]) {
				t.Fatalf("seed %d: message %d corrupted/reordered", seed, i)
			}
		}
		if *h.sendCQEs != n {
			t.Fatalf("seed %d: send completions = %d, want %d", seed, *h.sendCQEs, n)
		}
	}
}

func TestRDMALocalLoopbackQPs(t *testing.T) {
	// Both QPs on one NIC: the paper's local FLD-R topology.
	eng := sim.NewEngine()
	a := newNode(t, eng)

	sendCQEs := 0
	scqRing := a.mem.Alloc(64*CQESize, 64)
	scq := a.nic.CreateCQ(CQConfig{Ring: a.fab.AddrOf(a.mem, scqRing), Size: 64,
		OnCQE: func(CQE) { sendCQEs++ }})
	sqRing := a.mem.Alloc(64*SendWQESize, 64)
	sq := a.nic.CreateSQ(SQConfig{Ring: a.fab.AddrOf(a.mem, sqRing), Size: 64, CQ: scq})
	qp1 := a.nic.CreateQP(QPConfig{SQ: sq})

	var got []byte
	bufBase := a.mem.Alloc(1<<20, 4096)
	rcqRing := a.mem.Alloc(256*CQESize, 64)
	rcq := a.nic.CreateCQ(CQConfig{Ring: a.fab.AddrOf(a.mem, rcqRing), Size: 256,
		OnCQE: func(c CQE) {
			base := a.fab.PortOf(a.mem).Base()
			got = append(got, a.mem.ReadAt(c.Addr-base, int(c.ByteCount))...)
		}})
	rqRing := a.mem.Alloc(64*RecvWQESize, 64)
	srq := a.nic.CreateRQ(RQConfig{Ring: a.fab.AddrOf(a.mem, rqRing), Size: 64, CQ: rcq, StrideSize: 256})
	drq := &driverRQ{nd: a, rq: srq, ring: rqRing}
	for i := 0; i < 16; i++ {
		drq.post(a.fab.AddrOf(a.mem, bufBase+uint64(i)*32768), 32768, 8)
	}
	qp2 := a.nic.CreateQP(QPConfig{RQ: srq})
	ConnectQPs(qp1, qp2)

	msg := make([]byte, 2500)
	for i := range msg {
		msg[i] = byte(255 - i%251)
	}
	buf := a.mem.Alloc(4096, 64)
	a.mem.WriteAt(buf, msg)
	dsq := &driverSQ{nd: a, sq: sq, ring: sqRing}
	dsq.post(SendWQE{Opcode: OpSend, Signal: true, Addr: a.fab.AddrOf(a.mem, buf), Len: uint32(len(msg))})
	dsq.doorbell()
	eng.Run()

	if !bytes.Equal(got, msg) {
		t.Fatalf("loopback message corrupted (%d/%d bytes)", len(got), len(msg))
	}
	if sendCQEs != 1 {
		t.Fatalf("send completions = %d", sendCQEs)
	}
	if n := eng.Bufs().Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding after the hairpinned message, want 0", n)
	}
}

func TestRoCEParseRejectsNonRoCE(t *testing.T) {
	frame := buildFrame(1, 2, 100, 200, 64)
	if _, _, ok := parseRoCE(frame); ok {
		t.Fatal("plain UDP parsed as RoCE")
	}
}

// TestRDMAWindowAcrossPSNWrap starts both PSN streams 64 below 2³² and
// sends 300 packets (30 messages of 10: the receiver acks per message,
// so one message must fit the 128-packet window), so the send window's
// upper edge (una+128) wraps before the first packet leaves. Compared
// unsigned, every PSN sits "beyond" the wrapped edge: nothing is sent and
// the QP burns its retry budget into Error.
func TestRDMAWindowAcrossPSNWrap(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	const start = ^uint32(0) - 63
	startPSNs(h.qpA, h.qpB, start)
	msg := make([]byte, 10*1024)
	for i := range msg {
		msg[i] = byte(i * 11)
	}
	buf := h.a.mem.Alloc(uint64(len(msg)), 64)
	h.a.mem.WriteAt(buf, msg)
	const n = 30
	for m := 0; m < n; m++ {
		h.sqA.post(SendWQE{Opcode: OpSend, Signal: m == n-1,
			Addr: h.a.fab.AddrOf(h.a.mem, buf), Len: uint32(len(msg))})
		if m%10 == 9 { // 100 KB of gather reads at a time fits the completion timeout
			h.sqA.doorbell()
			h.eng.Run()
		}
	}
	if a, b := h.qpA.State().String(), h.qpB.State().String(); a != "ready" || b != "ready" {
		t.Fatalf("QP states %s/%s after the wrap, want ready", a, b)
	}
	if len(*h.msgs) != n {
		t.Fatalf("delivered %d messages across the PSN wrap, want %d", len(*h.msgs), n)
	}
	for m, got := range *h.msgs {
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted", m)
		}
	}
	if tx := h.a.nic.Stats.TxPackets; tx != 10*n {
		t.Fatalf("%d data packets sent for %d: retransmission on a lossless wire", tx, 10*n)
	}
}

// TestRDMAAckForUnsentPSNIgnored hands a QP with three packets in flight
// (PSNs 0–2, the peer silent) ACKs and NAKs that acknowledge PSNs it never
// sent: an ACK names the last PSN received, a NAK the next one expected,
// so ACK 3 and NAK 4 are the first such. A sender that takes either
// cumulatively completes a message the peer never received; both must
// change nothing, and the retransmission timer must still be guarding the
// packets.
func TestRDMAAckForUnsentPSNIgnored(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	h.wire.Loss = func(int, []byte) bool { return true }
	h.sendMessage(make([]byte, 3000), true)
	h.eng.RunUntil(h.eng.Now() + 10*sim.Microsecond)
	if got := h.qpA.Outstanding(); got != 3 {
		t.Fatalf("%d packets outstanding, want 3 in flight", got)
	}
	for _, op := range []uint8{btAck, btNak} {
		for _, psn := range []uint32{3 + uint32(op-btAck), 200, 1 << 31} {
			h.qpA.receive(BTH{Opcode: op, Epoch: h.qpA.connEpoch, DestQPN: h.qpA.QPN, PSN: psn}, nil, h.eng.Bufs().Get(64))
			if got := h.qpA.Outstanding(); got != 3 {
				t.Fatalf("opcode %#x for unsent PSN %d released packets: %d outstanding, want 3", op, psn, got)
			}
		}
	}
	h.eng.RunUntil(h.eng.Now() + 150*sim.Microsecond)
	if *h.sendCQEs != 0 || h.a.nic.Stats.Drops[DropRDMATimeout] == 0 {
		t.Fatalf("after acks for unsent PSNs: %d send completions, %d timeouts; want none and some",
			*h.sendCQEs, h.a.nic.Stats.Drops[DropRDMATimeout])
	}
}
