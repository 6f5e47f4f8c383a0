package nic

import (
	"testing"
	"unsafe"

	"flexdriver/internal/sim"
)

// checkPools fails unless every frame ended: the engines' pools balance
// (Gets − Puts summed to zero) and no buffer was put back twice — a
// buffer two owners share balances the count, but then sits twice on a
// freelist. Draining every class (64 buffers a size, more than a test
// leaves) hands each buffer out once, so a repeated address is a double
// put; the drained buffers go back after.
func checkPools(t *testing.T, engs ...*sim.Engine) {
	t.Helper()
	var out int64
	for _, e := range engs {
		out += e.Bufs().Outstanding()
	}
	if out != 0 {
		t.Errorf("%d frames outstanding across the engines, want 0", out)
	}
	seen := map[*byte]bool{}
	for _, e := range engs {
		var held [][]byte
		for size := 64; size <= 16384; size *= 2 {
			for range 64 {
				b := e.Bufs().Get(size)
				if p := unsafe.SliceData(b); seen[p] {
					t.Errorf("buffer %p handed out twice: it was put back twice", p)
				} else {
					seen[p] = true
				}
				held = append(held, b)
			}
		}
		for _, b := range held {
			e.Bufs().Put(b)
		}
	}
}

// TestFrameEndsReturnToPool drives each place a frame's life ends on a
// NIC — placement, every drop on the Ethernet path, the RoCE receive and
// the retransmission queue's releases — and wants every pooled frame back
// in a pool, once, when the engine quiesces.
func TestFrameEndsReturnToPool(t *testing.T) {
	// A pooled frame, as every frame source makes one.
	eth := func(a *node) []byte { return a.eng.Bufs().Clone(buildFrame(1, 2, 1000, 2000, 200)) }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire)
		drop DropReason // counted on b, or on a for a transmit-side end
	}{
		{"placed", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			_, drq, cqes, bufs := setupEthTxRx(t, a, b, 0)
			drq.post(b.fab.AddrOf(b.mem, bufs), 2048, 0)
			eng.Run()
			a.nic.transmitWire(eth(a), nil)
			eng.Run()
			if len(*cqes) != 1 {
				t.Errorf("%d receive completions, want 1", len(*cqes))
			}
		}, ""},
		{"wire loss", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			w.Loss = func(int, []byte) bool { return true }
			a.nic.transmitWire(eth(a), nil)
		}, DropWireInjectedLoss},
		{"wire dup", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			w.Dup = func(int, []byte) bool { return true }
			a.nic.transmitWire(eth(a), nil)
			eng.Run()
			if got := b.nic.Stats.Drops[DropESwitchMiss]; got != 2 {
				t.Errorf("%d copies arrived, want 2", got)
			}
		}, DropESwitchMiss},
		{"no wire", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			a.nic.phy = nil
			a.nic.transmitWire(eth(a), nil)
		}, DropNoWire},
		{"device down", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			b.nic.Crash()
			a.nic.transmitWire(eth(a), nil)
		}, DropDeviceDown},
		{"encap, then rule drop", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			vp := a.nic.ESwitch().AddVPort()
			a.nic.ESwitch().AddRule(vp.EgressTable, Rule{Action: Action{Encap: make([]byte, 50), ToWire: true}})
			b.nic.ESwitch().AddRule(0, Rule{Action: Action{Drop: true}})
			a.nic.egress(vp, eth(a), 0, nil)
		}, DropRuleDrop},
		{"rq error", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			_, drq, _, _ := setupEthTxRx(t, a, b, 0)
			drq.rq.enterError(SynQueueErr)
			a.nic.transmitWire(eth(a), nil)
		}, DropRQError},
		{"rq no buffers", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			setupEthTxRx(t, a, b, 0)
			a.nic.transmitWire(eth(a), nil)
		}, DropRQNoBuffers},
		{"rx too big", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			_, drq, _, bufs := setupEthTxRx(t, a, b, 0)
			drq.post(b.fab.AddrOf(b.mem, bufs), 128, 0)
			eng.Run()
			a.nic.transmitWire(eth(a), nil)
		}, DropRxTooBig},
		{"rq overflow", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			_, drq, _, bufs := setupEthTxRx(t, a, b, 0)
			drq.post(b.fab.AddrOf(b.mem, bufs), 2048, 0) // its fetch is in flight below
			for range 257 {
				f := eth(b)
				drq.rq.deliver(f, f, CQE{})
			}
		}, DropRQOverflow},
		{"rq reset with a backlog", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			_, drq, _, bufs := setupEthTxRx(t, a, b, 0)
			drq.post(b.fab.AddrOf(b.mem, bufs), 2048, 0)
			f := eth(b)
			drq.rq.deliver(f, f, CQE{})
			drq.rq.Reset()
		}, ""},
		{"crash with a backlog", func(t *testing.T, eng *sim.Engine, a, b *node, w *Wire) {
			_, drq, _, bufs := setupEthTxRx(t, a, b, 0)
			drq.post(b.fab.AddrOf(b.mem, bufs), 2048, 0)
			f := eth(b)
			drq.rq.deliver(f, f, CQE{})
			b.nic.Crash()
		}, DropDeviceDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, a, b, w := twoNodes(t)
			tc.run(t, eng, a, b, w)
			eng.Run()
			if tc.drop != "" && a.nic.Stats.Drops[tc.drop]+b.nic.Stats.Drops[tc.drop] == 0 {
				t.Errorf("no %s drop counted", tc.drop)
			}
			checkPools(t, eng)
		})
	}
}

// TestRoCEFrameEndsReturnToPool drives the transport's frame ends: data
// and ACKs placed and consumed, the retransmission queue released by ACKs,
// by go-back-N across losses and by its three flushes (retry exhaustion,
// reconnect, device crash), and a receiver's drops (unknown QPN, a QP in
// error, a stale epoch, out of order, duplicates). The queue's pooled
// copy of each message goes back once, with its last packet: the flushes
// run on whole queues and on queues whose head message was acked in part.
func TestRoCEFrameEndsReturnToPool(t *testing.T) {
	msg := make([]byte, 3000) // three packets
	// ackedInPart queues two messages and loses the second packet of the
	// first and every packet from the fourth on: the third arrives out of
	// order, its NAK acks the first, and the rest of both messages stays
	// queued.
	ackedInPart := func(t *testing.T, h *rdmaHarness) {
		n := 0
		h.wire.Loss = func(dir int, _ []byte) bool {
			if dir != 0 {
				return false
			}
			n++
			return n == 2 || n >= 4
		}
		h.sendMessage(msg, true)
		h.sendMessage(msg, true)
		h.eng.RunUntil(h.eng.Now() + 10*sim.Microsecond)
		if h.qpA.snd.Una != 1 || h.qpA.Outstanding() != 5 {
			t.Fatalf("una %d, %d packets queued; want the first packet acked and 5 queued", h.qpA.snd.Una, h.qpA.Outstanding())
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, h *rdmaHarness)
		drop DropReason
	}{
		{"delivered and acked", func(t *testing.T, h *rdmaHarness) {
			h.sendMessage(msg, true)
			h.eng.Run()
			if len(*h.msgs) != 1 || *h.sendCQEs != 1 {
				t.Errorf("%d messages, %d send completions; want 1 and 1", len(*h.msgs), *h.sendCQEs)
			}
		}, ""},
		{"lost, resent, duplicated", func(t *testing.T, h *rdmaHarness) {
			n := 0
			h.wire.Loss = func(dir int, _ []byte) bool { n++; return dir == 0 && n == 2 }
			h.wire.Dup = func(dir int, _ []byte) bool { return dir == 0 && n == 4 }
			h.sendMessage(msg, true)
			h.sendMessage(msg, true)
		}, DropRDMAOutOfOrder},
		{"unknown qpn", func(t *testing.T, h *rdmaHarness) {
			h.qpA.remoteQPN = 999
			h.qpA.sendCtl(btAck, 0)
		}, DropRDMAUnknownQPN},
		{"stale epoch", func(t *testing.T, h *rdmaHarness) {
			h.qpA.connEpoch++
			h.qpA.sendCtl(btAck, 0)
		}, DropRDMAStaleEpoch},
		{"retries exhausted", func(t *testing.T, h *rdmaHarness) {
			h.qpB.enterError(SynQueueErr)
			h.sendMessage(msg, true)
		}, DropQPError},
		{"reconnect flushes", func(t *testing.T, h *rdmaHarness) {
			h.wire.Loss = func(int, []byte) bool { return true }
			h.sendMessage(msg, true)
			h.eng.RunUntil(h.eng.Now() + 10*sim.Microsecond)
			ReconnectQPs(h.qpA, h.qpB)
		}, DropWireInjectedLoss},
		{"crash flushes", func(t *testing.T, h *rdmaHarness) {
			h.wire.Loss = func(int, []byte) bool { return true }
			h.sendMessage(msg, true)
			h.eng.RunUntil(h.eng.Now() + 10*sim.Microsecond)
			h.a.nic.Crash()
		}, DropDeviceDown},
		{"acked in part, then retries exhausted", func(t *testing.T, h *rdmaHarness) {
			ackedInPart(t, h)
			h.eng.Run()
			if h.qpA.State() != QueueError {
				t.Errorf("QP state %v after the retries ran out, want Error", h.qpA.State())
			}
		}, DropRDMATimeout},
		{"acked in part, then reconnect", func(t *testing.T, h *rdmaHarness) {
			ackedInPart(t, h)
			ReconnectQPs(h.qpA, h.qpB)
		}, DropRDMAOutOfOrder},
		{"acked in part, then crash", func(t *testing.T, h *rdmaHarness) {
			ackedInPart(t, h)
			drops := h.a.nic.Stats.Drops[DropDeviceDown]
			h.a.nic.Crash()
			if got := h.a.nic.Stats.Drops[DropDeviceDown] - drops; got != 5 {
				t.Errorf("crash counted %d packets lost, want the 5 queued", got)
			}
		}, DropDeviceDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newRDMAHarness(t, 1024)
			tc.run(t, h)
			h.eng.Run()
			if tc.drop != "" && h.a.nic.Stats.Drops[tc.drop]+h.b.nic.Stats.Drops[tc.drop] == 0 {
				t.Errorf("no %s drop counted", tc.drop)
			}
			if h.qpA.Outstanding() != 0 {
				t.Errorf("%d packets still in the retransmission queue", h.qpA.Outstanding())
			}
			checkPools(t, h.eng)
		})
	}
}
