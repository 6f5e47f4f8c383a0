package swdriver

import (
	"testing"

	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
)

// rdmaPair builds two hosts cabled back to back with a connected RDMA
// endpoint on each.
func rdmaPair(eng *sim.Engine, sendEntries int) (a *host, ea, eb *RDMAEndpoint) {
	a = newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	ea = a.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: sendEntries, RecvEntries: 64})
	eb = b.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: sendEntries, RecvEntries: 64})
	nic.ConnectQPs(ea.QP, eb.QP)
	return a, ea, eb
}

// TestRDMAGatherErrorKeepsEarlierCompletions: RDMA completions are not in
// ring order. A later WQE whose payload gather fails completes with an
// error CQE from the SQ at once, while the messages posted ahead of it
// are still waiting for their ACKs. The error retires one slot, and every
// earlier message still reaches OnSendComplete when its ACK arrives.
// Reading the error CQE's index as "everything up to here is done" would
// retire the earlier messages with it and swallow their completions.
func TestRDMAGatherErrorKeepsEarlierCompletions(t *testing.T) {
	eng := sim.NewEngine()
	a, ea, eb := rdmaPair(eng, 16)
	delivered := 0
	eb.OnMessage = func([]byte) { delivered++ }
	completions := 0
	ea.OnSendComplete = func() { completions++ }

	const ahead = 4 // messages in flight ahead of the failing one
	msg := make([]byte, 256)
	for i := 0; i <= ahead; i++ {
		ea.Send(msg)
	}
	// With no jitter the CPU posts message i at (i+1)·TxCost. One
	// picosecond after the last post, before its doorbell can reach the
	// NIC, point its descriptor at an address no device decodes: the
	// gather completes Unsupported Request.
	eng.After((ahead+1)*a.drv.Prm.TxCost+1, func() {
		w := nic.SendWQE{Opcode: nic.OpSend, Index: ahead, Signal: true, Addr: 1 << 62, Len: uint32(len(msg))}
		b := make([]byte, nic.SendWQESize)
		w.MarshalInto(b)
		a.mem.WriteAt(ea.QP.SQ.Ring-a.fab.PortOf(a.mem).Base()+ahead*nic.SendWQESize, b)
	})
	eng.Run()

	if a.drv.CQEErrors != 1 || a.drv.TxErrors != 1 {
		t.Fatalf("CQEErrors=%d TxErrors=%d, want one gather error and one lost message",
			a.drv.CQEErrors, a.drv.TxErrors)
	}
	if delivered != ahead || completions != ahead {
		t.Fatalf("delivered %d, completed %d: every message ahead of the gather error (%d) must complete",
			delivered, completions, ahead)
	}
}

// TestRDMAQueueFatalRetiresNothing: a queue-fatal SynQueueErr CQE
// completes no message, so it frees no slot. Messages posted before the
// failing fetch still complete as their ACKs arrive, the backlog refills
// only the slots those ACKs free, and the driver never doorbells a
// producer index more than a ring ahead of the NIC's consumer index.
// Poll then flushes exactly the ring's worth of messages the errored SQ
// held, and the backlog goes out on the clean ring.
func TestRDMAQueueFatalRetiresNothing(t *testing.T) {
	const size, ahead, later = 4, 3, 8
	eng := sim.NewEngine()
	a, ea, eb := rdmaPair(eng, size)
	delivered, completions := 0, 0
	eb.OnMessage = func([]byte) { delivered++ }
	ea.OnSendComplete = func() { completions++ }
	sq := ea.QP.SQ
	failed := false
	a.nic.SetFaults(&nic.FaultHooks{FailWQEFetch: func(q *nic.SQ) bool {
		// The first fetch after the messages ahead left the SQ for the
		// transport fails, before any of their ACKs is back.
		if q != sq || failed || q.CI() < ahead {
			return false
		}
		failed = true
		return true
	}})
	msg := make([]byte, 256)
	for i := 0; i < ahead; i++ {
		ea.Send(msg)
	}
	eng.After(2*sim.Microsecond, func() {
		for i := 0; i < later; i++ {
			ea.Send(msg)
		}
	})
	eng.Run()
	if !failed || sq.State() != nic.QueueError || delivered != ahead || completions != ahead {
		t.Fatalf("fetch failed %v, SQ state %v, %d delivered, %d completed: want the %d messages ahead through and the SQ in Error",
			failed, sq.State(), delivered, completions, ahead)
	}
	if n := sq.PI() - sq.CI(); n > size {
		t.Fatalf("driver doorbelled producer index %d, %d ahead of the NIC's consumer index on a %d-entry ring",
			sq.PI(), n, size)
	}

	ea.Poll()
	eng.Run()
	if a.drv.CQEErrors != 1 || a.drv.TxErrors != size {
		t.Fatalf("CQEErrors=%d TxErrors=%d, want the error CQE and the %d messages its ring held",
			a.drv.CQEErrors, a.drv.TxErrors, size)
	}
	if want := ahead + later - size; delivered != want || completions != want {
		t.Fatalf("delivered %d, completed %d, want %d", delivered, completions, want)
	}
}
