package nic

import (
	"testing"

	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// instrumented attaches a live registry to each NIC: the allocation pins
// below hold with telemetry on, which is how every cluster run executes.
func instrumented(nodes ...*node) {
	reg := telemetry.New()
	for i, nd := range nodes {
		nd.nic.SetTelemetry(reg.Scope(string(rune('a' + i))))
	}
}

// TestESwitchTraversalZeroAlloc pins the match-action pipeline at zero
// allocations per frame in both directions: the pooled pktView carries the
// parsed headers, the sender's completion hook and the chosen queue from
// entry to the terminal disposition, stepped by static trampolines. Each
// measurement ends where the pipeline's ownership does — the transmitted
// frame is dropped at the far edge of the cable, the received one at a
// receive queue left in the Error state — so what lies beyond (buffer
// placement, CQE writes) is not counted here.
func TestESwitchTraversalZeroAlloc(t *testing.T) {
	eng, a, b, w := twoNodes(t)
	instrumented(a, b)
	w.Loss = func(int, []byte) bool { return true }
	frame := buildFrame(1, 2, 1000, 2000, 64)

	vp := a.nic.ESwitch().AddVPort()
	a.nic.ESwitch().AddRule(vp.EgressTable, Rule{Action: Action{ToWire: true}})
	sent := 0
	onSent := func() { sent++ }
	tx := func() {
		a.nic.egress(vp, frame, 7, onSent)
		eng.Run()
	}

	rq := b.nic.CreateRQ(RQConfig{Size: 64})
	rq.enterError(SynQueueErr)
	b.nic.ESwitch().AddRule(0, Rule{Action: Action{ToTIR: &TIR{RQs: []*RQ{rq}}}})
	rx := func() {
		b.nic.Ingress(frame)
		eng.Run()
	}

	tx() // warm: view freelist, wire transit record, drop-reason counters
	rx()
	if avg := testing.AllocsPerRun(100, tx); avg != 0 {
		t.Errorf("egress -> ToWire: %.1f allocs per frame, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, rx); avg != 0 {
		t.Errorf("Ingress -> ToRQ: %.1f allocs per frame, want 0", avg)
	}
	if sent != 102 || w.Lost[0] != 102 {
		t.Errorf("sent=%d lost=%d, want every egress frame completed and dropped at the cable's far end", sent, w.Lost[0])
	}
	if got := b.nic.Stats.Drops[DropRQError]; got != 102 {
		t.Errorf("%d frames reached the receive queue, want 102", got)
	}
}

// TestRoCEFramingOneAllocPerFrame pins the transport's framing at one
// allocation per frame — the frame itself, exactly sized — for data
// packets and for ACK/NAKs. The control frame is measured all the way
// through transmit and across the cable (dropped at its far edge by
// injected loss), so the ACK path adds nothing of its own.
func TestRoCEFramingOneAllocPerFrame(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	h.wire.Loss = func(int, []byte) bool { return true }
	payload := make([]byte, 1024)
	if avg := testing.AllocsPerRun(100, func() { h.qpA.buildPacket(btSendMiddle, 7, payload) }); avg != 1 {
		t.Errorf("buildPacket: %.1f allocations per frame, want 1", avg)
	}
	ack := func() {
		h.qpB.sendCtl(btAck, 7)
		h.eng.Run()
	}
	ack() // warm: wire transit record, drop-reason counter
	if avg := testing.AllocsPerRun(100, ack); avg != 1 {
		t.Errorf("sendCtl: %.1f allocations per ACK, want 1", avg)
	}
}

// TestRQPlacementZeroAlloc pins receive placement at zero allocations per
// packet once the descriptors are on the NIC: deliver queues the packet,
// progress takes a prefetched descriptor by value, place carries the CQE
// in a pooled record through the payload DMA write. Eight 32 KiB MPRQ
// buffers arrive in one descriptor fetch during warm-up and hold every
// packet of the measurement, so no fetch (which does allocate) falls
// inside it; the queue has no CQ, so the measurement ends where the
// payload lands.
func TestRQPlacementZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b := newNode(t, eng)
	instrumented(b)
	rqRing := b.mem.Alloc(64*RecvWQESize, 64)
	rq := b.nic.CreateRQ(RQConfig{Ring: b.fab.AddrOf(b.mem, rqRing), Size: 64, StrideSize: 256})
	drq := &driverRQ{nd: b, rq: rq, ring: rqRing}
	bufBase := b.mem.Alloc(8*32768, 4096)
	for i := 0; i < 8; i++ {
		drq.post(b.fab.AddrOf(b.mem, bufBase+uint64(i)*32768), 32768, 8)
	}
	pkt := make([]byte, 200)
	rx := func() {
		rq.deliver(pkt, CQE{Opcode: CQERecv, Last: true})
		eng.Run()
	}
	rx() // warm: descriptor fetch, host-memory page, pooled records
	if avg := testing.AllocsPerRun(200, rx); avg != 0 {
		t.Fatalf("deliver -> place: %.2f allocations per packet, want 0", avg)
	}
	if got := b.nic.Stats.RxPackets; got != 202 {
		t.Fatalf("placed %d packets, want 202", got)
	}
}
