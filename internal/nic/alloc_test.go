package nic

import (
	"testing"

	"flexdriver/internal/pcie"
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

// TestRoCEFramingZeroAlloc pins the transport's framing at zero
// allocations per frame once the pools are warm, for data packets and for
// ACK/NAKs. A data packet's message is a pooled copy, as send makes it;
// emit frames the packet from it into a pooled buffer, and the message is
// released as an ACK would release it; each frame is measured all the way
// through transmit and across the cable, dropped at its far edge by
// injected loss, which puts it back.
func TestRoCEFramingZeroAlloc(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	h.wire.Loss = func(int, []byte) bool { return true }
	payload := make([]byte, 1024)
	data := func() {
		p := txPkt{msg: h.eng.Bufs().Clone(payload), n: 1024, op: btSendOnly, last: true}
		h.qpA.emit(7, &p)
		h.qpA.release(&p)
		h.eng.Run()
	}
	ack := func() {
		h.qpB.sendCtl(btAck, 7)
		h.eng.Run()
	}
	data() // warm: buffer classes, wire transit record, drop-reason counter
	ack()
	if avg := testing.AllocsPerRun(100, data); avg != 0 {
		t.Errorf("data frame: %.1f allocations per frame, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, ack); avg != 0 {
		t.Errorf("sendCtl: %.1f allocations per ACK, want 0", avg)
	}
	if n := h.eng.Bufs().Outstanding(); n != 0 {
		t.Errorf("%d frames outstanding after every frame was lost on the cable, want 0", n)
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
	rx := func() {
		pkt := eng.Bufs().Get(200)
		rq.deliver(pkt, pkt, CQE{Opcode: CQERecv, Last: true})
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

// TestAllocsPerRingSend pins a ring-posted send on a warm queue —
// doorbell, descriptor fetch, txEngine slot, payload gather, egress, lost
// at the cable's far edge — at zero allocations. Both reads' completion
// buffers are borrowed from the engine's BufPool, and so is the frame the
// gathered payload is copied into, which the cable puts back when it
// loses it; the state rides in pooled records whose completion callbacks
// were bound when the records were made, so neither read costs a closure.
func TestAllocsPerRingSend(t *testing.T) {
	eng, a, b, w := twoNodes(t)
	instrumented(a, b)
	w.Loss = func(int, []byte) bool { return true }
	dsq, _, _, _ := setupEthTxRx(t, a, b, 0)
	frame := buildFrame(1, 2, 1000, 2000, 64)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	// Every slot of the ring holds the same unsignaled descriptor, so a
	// send is one doorbell.
	for i := 0; i < dsq.sq.Size; i++ {
		dsq.post(SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))})
	}
	pi := uint32(0)
	send := func() {
		pi++
		dsq.sq.ringDoorbell(pi)
		eng.Run()
	}
	send() // warm: pooled records, host-memory pages, wire transit record
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Errorf("ring-posted send: %.2f allocations, want 0", avg)
	}
	if got := a.nic.Stats.TxPackets; got != 202 || dsq.sq.CI() != pi {
		t.Errorf("sent %d frames with ci=%d pi=%d, want 202 and a drained queue", got, dsq.sq.CI(), pi)
	}
}

// TestSQFetchCopiesDescriptors: a descriptor read's completion is the
// fabric's pooled buffer, recycled (and, under the pooldebug tag,
// poisoned) the moment the callback returns, while each fetched
// descriptor still waits for its txEngine slot. sqFetchDone must copy the
// descriptors out: scribbling over the completion after it returns must
// not change what the queue executes.
func TestSQFetchCopiesDescriptors(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	dsq, _, _, _ := setupEthTxRx(t, a, b, 0)
	frame := buildFrame(1, 2, 1000, 2000, 64)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	const n = 4
	var data []byte
	for i := range n {
		data = append(data, SendWQE{Opcode: OpSend, Index: uint16(i), Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))}.Marshal()...)
	}
	sq := dsq.sq
	sq.pi, sq.inflight = n, n // as kick leaves them with this fetch in flight
	x := a.nic.fetches.Get()
	x.sq, x.ep, x.first, x.count = sq, sq.epoch, 0, n
	sqFetchDone(x, pcie.Completion{Data: data})
	for i := range data {
		data[i] = 0xA5
	}
	eng.Run()
	if got := a.nic.Stats.TxPackets; got != n || sq.CI() != n {
		t.Fatalf("sent %d of %d fetched descriptors (ci=%d) after their completion was reused", got, n, sq.CI())
	}
}

// descCompletion is the completion of a descriptor read that returns one
// receive descriptor per address given.
func descCompletion(addrs ...uint64) pcie.Completion {
	var data []byte
	for _, a := range addrs {
		data = append(data, RecvWQE{Addr: a, Len: 2048}.Marshal()...)
	}
	return pcie.Completion{Data: data}
}

// TestRQFetchDrainsInRingOrder: descriptor reads may complete in any
// order, ready fills in ring order. Read 2 overtakes both earlier reads
// and parks; read 0 is next to drain and goes straight onto ready, closing
// nothing; read 1 then drains itself and the parked batch behind it.
func TestRQFetchDrainsInRingOrder(t *testing.T) {
	b := newNode(t, sim.NewEngine())
	rq := b.nic.CreateRQ(RQConfig{Ring: 0, Size: 64})
	rq.inflight = 3
	for _, step := range []struct {
		seq       uint64
		addrs     []uint64
		wantReady int
	}{
		{2, []uint64{0x5000, 0x6000}, 0},
		{0, []uint64{0x1000, 0x2000}, 2},
		{1, []uint64{0x3000, 0x4000}, 6},
	} {
		rq.fetchDone(step.seq, len(step.addrs), descCompletion(step.addrs...))
		if rq.ready.Len() != step.wantReady {
			t.Fatalf("after read %d: %d descriptors ready, want %d", step.seq, rq.ready.Len(), step.wantReady)
		}
	}
	for want := uint64(0x1000); rq.ready.Len() > 0; want += 0x1000 {
		if got := rq.ready.Pop().Addr; got != want {
			t.Fatalf("ready out of ring order: descriptor %#x where %#x belongs", got, want)
		}
	}
	if rq.drainSeq != 3 || len(rq.fetched) != 0 || rq.inflight != 0 {
		t.Fatalf("drainSeq=%d parked=%d inflight=%d, want 3, 0, 0", rq.drainSeq, len(rq.fetched), rq.inflight)
	}
}

// TestRQFetchInOrderZeroAlloc: the common case — the read that completes
// is the next to drain and nothing is parked — parses straight onto
// ready: no batch slice, no parking-lot insert, nothing allocated once
// ready has grown to a batch.
func TestRQFetchInOrderZeroAlloc(t *testing.T) {
	b := newNode(t, sim.NewEngine())
	rq := b.nic.CreateRQ(RQConfig{Ring: 0, Size: 64})
	c := descCompletion(1, 2, 3, 4, 5, 6, 7, 8)
	seq := uint64(0)
	read := func() {
		rq.inflight++
		rq.fetchDone(seq, rqFetchBatch, c)
		seq++
		for rq.ready.Len() > 0 {
			rq.ready.Pop()
		}
	}
	read() // warm: ready's backing array
	if avg := testing.AllocsPerRun(200, read); avg != 0 {
		t.Fatalf("in-order descriptor read: %.2f allocations in fetchDone, want 0", avg)
	}
	if rq.fetched != nil {
		t.Fatal("in-order reads built the parking lot")
	}
}

// TestGatherRecordSurvivesQueueReset: the record that carries a descriptor
// through its payload gather is out of the pool until the gather's
// completion, however late. A queue reset in that window must neither let
// the stale completion retire into the new epoch nor hand the in-flight
// record to the next descriptor (here one pushed by MMIO, which takes its
// record the moment it arrives); the record comes back exactly once.
func TestGatherRecordSurvivesQueueReset(t *testing.T) {
	eng, a, b, w := twoNodes(t)
	w.Loss = func(int, []byte) bool { return true }
	dsq, _, _, _ := setupEthTxRx(t, a, b, 0)
	frame := buildFrame(1, 2, 1000, 2000, 64)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, frame)
	wqe := SendWQE{Opcode: OpSend, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(frame))}

	dsq.post(wqe)
	dsq.doorbell()
	eng.Run()
	pooled := pooledExecs(a.nic)
	if len(pooled) != 1 || pooled[0].sq != nil {
		t.Fatalf("after one send the pool should hold its one cleared record: %+v", pooled)
	}
	rec := pooled[0]

	dsq.post(wqe)
	dsq.doorbell()
	for i := 0; rec.wqe.Len == 0; i++ { // until execute parked the parsed descriptor in the record: gather in flight
		if i > 1000 {
			t.Fatal("the second send never reached its gather")
		}
		eng.RunUntil(eng.Now() + 10*sim.Nanosecond)
	}
	oldEpoch := rec.ep
	dsq.sq.enterError(SynQueueErr)
	dsq.sq.ResetTo(dsq.sq.PI(), dsq.sq.PI())
	a.fab.Write(a.bar+SQDoorbellOffset(dsq.sq.ID), wqe.Marshal()) // WQE-by-MMIO in the new epoch
	if n := len(pooledExecs(a.nic)); n != 0 || rec.sq != dsq.sq || rec.ep != oldEpoch || rec.idx != 1 {
		t.Fatalf("the in-flight gather's record was reused: %d pooled, ep=%d (was %d) idx=%d", n, rec.ep, oldEpoch, rec.idx)
	}
	eng.Run()

	if ci, pi := dsq.sq.CI(), dsq.sq.PI(); ci != pi || pi != 3 {
		t.Errorf("ci=%d pi=%d, want both 3: the stale gather must not retire a slot of the new epoch", ci, pi)
	}
	if got := a.nic.Stats.TxPackets; got != 2 {
		t.Errorf("%d frames transmitted, want 2 (the reset discarded the middle one)", got)
	}
	pooled, seen := pooledExecs(a.nic), 0
	for _, x := range pooled {
		if x == rec {
			seen++
		}
	}
	if seen != 1 || len(pooled) != 2 {
		t.Errorf("the pool holds the gather's record %d times among %d records, want once among 2", seen, len(pooled))
	}
}

// pooledExecs lists the NIC's idle sqExec records, most recently returned
// first (at most ten), and leaves the pool as it found it. New is stubbed
// to mark the bottom of the list; the bound turns a record returned twice
// (a cycle) into repeats instead of a hang.
func pooledExecs(n *NIC) []*sqExec {
	p, mk := &n.execs, n.execs.New
	p.New = func() *sqExec { return nil }
	var out []*sqExec
	for len(out) < 10 {
		x := p.Get()
		if x == nil {
			break
		}
		out = append(out, x)
	}
	for i := len(out) - 1; i >= 0; i-- {
		p.Put(out[i])
	}
	p.New = mk
	return out
}
