package virtio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// handQueue replaces queue n of v's device with an 8-descriptor, 64-byte-
// buffer queue the test drives by hand; the node's SoftDriver keeps
// ringing doorbells and ignores the interrupts, its own rings being idle.
func handQueue(v *vnode, n int) *DriverQueue {
	q := NewDriverQueue(v.mem, v.fab.AddrOf(v.mem, 0), 8, 64, false)
	q.Attach(v.dev, n)
	return q
}

// chain links heads into one descriptor chain, each hop covering lens[i]
// bytes of its own buffer, and returns the first head.
func chain(q *DriverQueue, flags uint16, heads []uint16, lens ...int) uint16 {
	for i, h := range heads {
		d := Desc{Addr: q.base + q.bufOff(h), Len: uint32(lens[i]), Flags: flags}
		if i+1 < len(heads) {
			d.Flags |= DescFlagNext
			d.Next = heads[i+1]
		}
		q.mem.WriteAt(q.desc+uint64(h)*DescSize, d.Marshal())
	}
	return heads[0]
}

// loop makes head a one-byte descriptor whose chain continues at itself.
func loop(q *DriverQueue, flags uint16, head uint16) uint16 {
	d := Desc{Addr: q.base + q.bufOff(head), Len: 1, Flags: flags | DescFlagNext, Next: head}
	q.mem.WriteAt(q.desc+uint64(head)*DescSize, d.Marshal())
	return head
}

// usedElems parses what the device has published on q's used ring.
func usedElems(q *DriverQueue) (out []UsedElem) {
	n := binary.LittleEndian.Uint16(q.mem.ReadAt(q.used+2, 2))
	for i := uint64(0); i < uint64(n); i++ {
		e, _ := ParseUsedElem(q.mem.ReadAt(q.used+4+i*8, 8))
		out = append(out, e)
	}
	return out
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// TestTxGathersChain: a transmit chain of three descriptors goes on the
// wire as one frame, and is retired under its head.
func TestTxGathersChain(t *testing.T) {
	eng, a, b := pair(t)
	var got [][]byte
	b.drv.OnReceive = func(f []byte) { got = append(got, f) }
	q := handQueue(a, TxQueue)
	frame := pattern(150)
	q.mem.WriteAt(q.bufOff(5), frame[:64])
	q.mem.WriteAt(q.bufOff(2), frame[64:128])
	q.mem.WriteAt(q.bufOff(7), frame[128:])
	q.Publish(chain(q, 0, []uint16{5, 2, 7}, 64, 64, 22))
	a.drv.notify(TxQueue)
	eng.Run()
	if len(got) != 1 || !bytes.Equal(got[0], frame) {
		t.Fatalf("received %d frames %x, want the 150 gathered bytes", len(got), got)
	}
	if u := usedElems(q); len(u) != 1 || u[0] != (UsedElem{ID: 5}) {
		t.Fatalf("used ring %+v, want head 5 retired once", u)
	}
}

// TestRxScattersChain: a frame longer than one buffer is scattered over a
// writable chain; one longer than the whole chain is cut to fit, counted
// and reported at the length written.
func TestRxScattersChain(t *testing.T) {
	for _, tc := range []struct{ size, wantLen, truncated int }{{150, 150, 0}, {300, 192, 1}} {
		eng, a, b := pair(t)
		q := handQueue(b, RxQueue)
		q.Publish(chain(q, DescFlagWrite, []uint16{1, 4, 0}, 64, 64, 64))
		b.drv.notify(RxQueue)
		frame := pattern(tc.size)
		a.drv.Send(frame)
		eng.Run()
		if u := usedElems(q); len(u) != 1 || u[0] != (UsedElem{ID: 1, Len: uint32(tc.wantLen)}) {
			t.Fatalf("%d B: used ring %+v, want head 1 with %d bytes", tc.size, u, tc.wantLen)
		}
		var got []byte
		for _, h := range []uint16{1, 4, 0} {
			got = append(got, q.mem.ReadAt(q.bufOff(h), 64)...)
		}
		if !bytes.Equal(got[:tc.wantLen], frame[:tc.wantLen]) {
			t.Fatalf("%d B: chain holds %x", tc.size, got)
		}
		if b.dev.Drops["rx-truncated"] != int64(tc.truncated) || b.dev.RxPackets != 1 {
			t.Fatalf("%d B: drops %v, RxPackets %d", tc.size, b.dev.Drops, b.dev.RxPackets)
		}
	}
}

// TestMalformedChains: a chain that loops is given up after 16 hops — on
// transmit retired unsent, on receive dropped — and a receive chain the
// device may not write is refused.
func TestMalformedChains(t *testing.T) {
	eng, a, b := pair(t)
	b.drv.OnReceive = func(f []byte) { t.Errorf("a looping chain put %d bytes on the wire", len(f)) }
	tx := handQueue(a, TxQueue)
	tx.Publish(loop(tx, 0, 3))
	a.drv.notify(TxQueue)
	eng.Run()
	if u := usedElems(tx); a.dev.Drops["chain-too-long"] != 1 || a.dev.TxPackets != 0 || len(u) != 1 || u[0].ID != 3 {
		t.Fatalf("tx loop: drops %v, TxPackets %d, used %+v", a.dev.Drops, a.dev.TxPackets, u)
	}

	rx := handQueue(b, RxQueue)
	rx.Publish(loop(rx, DescFlagWrite, 6))
	rx.Publish(chain(rx, 0, []uint16{2}, 64)) // not writable
	b.drv.notify(RxQueue)
	b.dev.deliver(pattern(40))
	b.dev.deliver(pattern(40))
	eng.Run()
	if b.dev.Drops["chain-too-long"] != 1 || b.dev.Drops["rx-bad-chain"] != 1 || b.dev.RxPackets != 0 {
		t.Fatalf("rx: drops %v, RxPackets %d", b.dev.Drops, b.dev.RxPackets)
	}
}

// TestDeviceDropReasons walks the device's remaining refusals.
func TestDeviceDropReasons(t *testing.T) {
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng)
	mem := hostmem.New("mem", 1<<20)
	host := fab.Attach(mem, pcie.Gen3x8())
	dev := NewNetDevice("vnic", eng, DefaultNetDeviceParams())
	bar := dev.AttachPCIe(fab, pcie.Gen3x8()).Base()
	if dev.PCIeName() != "vnic" {
		t.Fatalf("PCIeName %q", dev.PCIeName())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ConfigureQueue(2) did not panic")
			}
		}()
		dev.ConfigureQueue(2, 8, 0, 0, 0)
	}()

	// Nothing configured: a notify and a frame both have nowhere to go.
	host.Write(bar+NotifyOffset(TxQueue), []byte{1, 0, 0, 0}, nil)
	host.Write(bar+NotifyOffset(2), []byte{1, 0, 0, 0}, nil)
	dev.deliver(pattern(60))
	eng.Run()
	if dev.Drops["notify-bad-queue"] != 2 || dev.Drops["rx-unconfigured"] != 1 {
		t.Fatalf("unconfigured: drops %v", dev.Drops)
	}

	// A receive queue with no buffer posted backlogs 256 frames, then drops.
	base := fab.AddrOf(mem, 0)
	NewDriverQueue(mem, base, 8, 64, false).Attach(dev, RxQueue)
	for i := 0; i < 260; i++ {
		dev.deliver(pattern(60))
	}
	// No cable: a transmitted frame is retired all the same.
	tx := NewDriverQueue(mem, base, 8, 64, false)
	tx.Attach(dev, TxQueue)
	head, _ := tx.Take()
	tx.Fill(head, pattern(60))
	tx.Publish(head)
	host.Write(bar+NotifyOffset(TxQueue), []byte{1, 0, 0, 0}, nil)
	eng.Run()
	if dev.Drops["rx-overflow"] != 4 || dev.Drops["no-link"] != 1 || len(usedElems(tx)) != 1 {
		t.Fatalf("drops %v, tx used %+v", dev.Drops, usedElems(tx))
	}
}

// TestFailedReadLosesNothing: one frame, with the k-th DMA read of the
// sending device lost, then a second frame. A lost ring read (the avail
// index, then the entries) leaves the frame published for the next notify;
// a lost descriptor or buffer read retires the chain unsent. Both chains
// complete either way. On the receiving side a lost descriptor read drops
// the frame it was for.
func TestFailedReadLosesNothing(t *testing.T) {
	for _, tc := range []struct {
		rxSide bool
		k, got int
	}{{false, 1, 2}, {false, 2, 2}, {false, 3, 1}, {false, 4, 1}, {true, 1, 1}} {
		eng, a, b := pair(t)
		eng.Run()
		got, completed := 0, 0
		b.drv.OnReceive = func([]byte) { got++ }
		a.drv.OnSendComplete = func() { completed++ }
		faulty := a
		if tc.rxSide {
			faulty = b
		}
		reads := 0
		faulty.fab.SetFaults(&pcie.FaultHooks{Drop: func(p *pcie.Port, typ telemetry.TLPType) bool {
			if typ != telemetry.MemRd {
				return false
			}
			reads++
			return reads == tc.k
		}})
		a.drv.Send(pattern(100))
		eng.Run()
		a.drv.Send(pattern(100))
		eng.Run()
		if got != tc.got || completed != 2 || faulty.dev.Drops["dma-error"] != 1 {
			t.Errorf("%+v: received %d, completed %d/2, drops %v", tc, got, completed, faulty.dev.Drops)
		}
	}
}

// TestSoftDriverRefusesBadUsedElement: the same refusal as the adapter's,
// through a SoftDriver's interrupt: nothing delivered, nothing reposted.
func TestSoftDriverRefusesBadUsedElement(t *testing.T) {
	_, a, _ := pair(t)
	a.drv.OnReceive = func(f []byte) { t.Errorf("delivered %d bytes", len(f)) }
	q := a.drv.rx
	for i, bad := range []UsedElem{{ID: 65, Len: 10}, {ID: 64, Len: 10}, {ID: 0, Len: 2049}} {
		q.mem.WriteAt(q.used+4+uint64(i)*8, MarshalUsedElem(bad))
	}
	q.mem.WriteAt(q.used+2, []byte{3, 0})
	a.drv.interrupt(RxQueue)
	if q.BadUsed != 3 || q.availIdx != 64 || q.usedSeen != 3 {
		t.Fatalf("BadUsed %d, avail index %d, used seen %d; want 3, 64, 3", q.BadUsed, q.availIdx, q.usedSeen)
	}
	if _, err := ParseUsedElem(make([]byte, 7)); err == nil {
		t.Fatal("short used element accepted")
	}
}

// TestDriverQueueIndexWrap drives a 4-entry queue past 65 536 publishes
// against a device played by the test: both free-running 16-bit indices
// wrap, every slot is reused, and each round trip returns the bytes that
// went in under the head they went in under.
func TestDriverQueueIndexWrap(t *testing.T) {
	mem := hostmem.New("mem", 1<<16)
	if need := 0x1000 + DriverQueueBytes(4, 16); need > 1<<16 || need < 4*(DescSize+16) {
		t.Fatalf("DriverQueueBytes(4, 16) = %d", need-0x1000)
	}
	q := NewDriverQueue(mem, 0x8000_0000, 4, 16, false)
	if !q.UsedHeader(q.used+3) || q.UsedHeader(q.used+4) || q.UsedHeader(q.used-1) {
		t.Fatal("UsedHeader does not cover exactly {flags, idx}")
	}
	var devAvail, devUsed uint16
	for i := 0; i < 70000; i++ {
		head, ok := q.Take()
		if !ok {
			t.Fatalf("publish %d: no credit", i)
		}
		var payload [4]byte
		binary.LittleEndian.PutUint32(payload[:], uint32(i))
		q.Fill(head, payload[:])
		q.Publish(head)

		// The device: consume one avail entry, echo its buffer's length.
		if idx := binary.LittleEndian.Uint16(mem.ReadAt(q.avail+2, 2)); idx != devAvail+1 {
			t.Fatalf("publish %d: avail index %d, want %d", i, idx, devAvail+1)
		}
		h := binary.LittleEndian.Uint16(mem.ReadAt(q.avail+4+uint64(devAvail%4)*2, 2))
		devAvail++
		d, _ := ParseDesc(mem.ReadAt(q.desc+uint64(h)*DescSize, DescSize))
		mem.WriteAt(q.used+4+uint64(devUsed%4)*8, MarshalUsedElem(UsedElem{ID: uint32(h), Len: d.Len}))
		devUsed++
		mem.WriteAt(q.used+2, binary.LittleEndian.AppendUint16(nil, devUsed))

		drained := 0
		q.Drain(func(got uint16, data []byte) {
			drained++
			if got != head || !bytes.Equal(data, payload[:]) || d.Addr != 0x8000_0000+q.bufOff(head) {
				t.Fatalf("publish %d: drained head %d data %x (desc %+v), sent head %d data %x", i, got, data, d, head, payload)
			}
			q.Release(got)
		})
		if drained != 1 || q.Credits() != 4 {
			t.Fatalf("publish %d: drained %d, credits %d", i, drained, q.Credits())
		}
	}
	if q.BadUsed != 0 {
		t.Fatalf("BadUsed %d", q.BadUsed)
	}
}
