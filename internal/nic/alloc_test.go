package nic

import "testing"

// TestWireTransitZeroAlloc pins the wire forwarding machinery at zero
// allocations per frame: getXfer/putXfer recycle the transit record and
// the serialization resource reschedules it through arg-form callbacks,
// so steady-state sends never allocate. The test drops every frame at the
// far edge of the cable (injected loss) so the measurement ends where the
// wire's ownership does — delivery hands the frame to the receiving NIC's
// match-action pipeline, which is outside the wire's zero-alloc contract.
func TestWireTransitZeroAlloc(t *testing.T) {
	eng, w, frame := wireBed(t)
	w.Loss = func(int, []byte) bool { return true }

	// Warm: first drop creates the telemetry counter for the reason, the
	// first transit record seeds the freelist.
	w.send(0, frame, nil)
	eng.Run()

	avg := testing.AllocsPerRun(100, func() {
		w.send(0, frame, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("wire transit: %.1f allocs per frame, want 0", avg)
	}
	if w.Sent[0] == 0 || w.Lost[0] != w.Sent[0] {
		t.Fatalf("Sent=%d Lost=%d, loss hook should have dropped every frame",
			w.Sent[0], w.Lost[0])
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
