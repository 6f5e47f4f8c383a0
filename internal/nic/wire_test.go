package nic

import "testing"

// TestWireDupEndToEnd drives a duplicated frame through the full NIC
// receive path: both copies must land as distinct host CQEs.
func TestWireDupEndToEnd(t *testing.T) {
	eng, a, b, w := twoNodes(t)
	w.Dup = func(int, []byte) bool { return true }
	dsq, drq, cqes, bufBase := setupEthTxRx(t, a, b, 0)
	drq.post(b.fab.AddrOf(b.mem, bufBase), 2048, 0)
	drq.post(b.fab.AddrOf(b.mem, bufBase+2048), 2048, 0)

	f := buildFrame(1, 2, 1000, 2000, 600)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, f)
	dsq.post(SendWQE{Opcode: OpSend, Signal: true, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(f))})
	dsq.doorbell()
	eng.Run()

	if len(*cqes) != 2 {
		t.Fatalf("duplicated frame produced %d rx CQEs, want 2", len(*cqes))
	}
	if a.nic.Stats.TxPackets != 1 || b.nic.Stats.RxPackets != 2 {
		t.Errorf("counters: tx=%d rx=%d, want 1 tx / 2 rx", a.nic.Stats.TxPackets, b.nic.Stats.RxPackets)
	}
}

// capturePort records frames a NIC hands to its physical attachment.
type capturePort struct {
	frames [][]byte
}

func (c *capturePort) Send(frame []byte, onSent func()) {
	c.frames = append(c.frames, frame)
	if onSent != nil {
		onSent()
	}
}

// TestAttachPortReplacesWire verifies the Port seam ConnectWire and the
// switch both plug into: whatever was attached last receives egress.
func TestAttachPortReplacesWire(t *testing.T) {
	eng, a, b, _ := twoNodes(t)
	cp := &capturePort{}
	a.nic.AttachPort(cp)

	dsq, _, _, _ := setupEthTxRx(t, a, b, 0)
	f := buildFrame(1, 2, 1000, 2000, 64)
	fbuf := a.mem.Alloc(2048, 64)
	a.mem.WriteAt(fbuf, f)
	dsq.post(SendWQE{Opcode: OpSend, Signal: true, Addr: a.fab.AddrOf(a.mem, fbuf), Len: uint32(len(f))})
	dsq.doorbell()
	eng.Run()

	if len(cp.frames) != 1 || len(cp.frames[0]) != len(f) {
		t.Fatalf("capture port saw %d frames, want the 1 egress frame", len(cp.frames))
	}
}
