package virtio

import (
	"bytes"
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

func TestDescCodec(t *testing.T) {
	d := Desc{Addr: 0x1234_5678, Len: 2048, Flags: DescFlagNext | DescFlagWrite, Next: 17}
	got, err := ParseDesc(d.Marshal())
	if err != nil || got != d {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if _, err := ParseDesc(make([]byte, 8)); err == nil {
		t.Fatal("short descriptor accepted")
	}
}

func TestUsedElemCodec(t *testing.T) {
	e := UsedElem{ID: 42, Len: 1500}
	got, err := ParseUsedElem(MarshalUsedElem(e))
	if err != nil || got != e {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}

// vnode is one host with a virtio NIC.
type vnode struct {
	eng *sim.Engine
	fab *pcie.Fabric
	mem *hostmem.Memory
	dev *NetDevice
	drv *SoftDriver
}

func newVNode(eng *sim.Engine, name string) *vnode {
	fab := pcie.NewFabric(eng)
	mem := hostmem.New(name+"-mem", 1<<26)
	fab.Attach(mem, pcie.Gen3x8())
	dev := NewNetDevice(name+"-vnic", eng, DefaultNetDeviceParams())
	dev.AttachPCIe(fab, pcie.Gen3x8())
	drv := NewSoftDriver(eng, fab, mem, dev, 64, 2048)
	return &vnode{eng: eng, fab: fab, mem: mem, dev: dev, drv: drv}
}

func pair(t *testing.T) (*sim.Engine, *vnode, *vnode) {
	t.Helper()
	eng := sim.NewEngine()
	a := newVNode(eng, "a")
	b := newVNode(eng, "b")
	ConnectLink(a.dev, b.dev, 25*sim.Gbps, 500*sim.Nanosecond)
	return eng, a, b
}

func TestVirtioEndToEnd(t *testing.T) {
	eng, a, b := pair(t)
	var got [][]byte
	b.drv.OnReceive = func(f []byte) { got = append(got, f) }
	frame := bytes.Repeat([]byte{0xA5}, 900)
	const n = 20
	for i := 0; i < n; i++ {
		a.drv.Send(frame)
	}
	eng.Run()
	if len(got) != n {
		t.Fatalf("received %d/%d (drops a=%v b=%v)", len(got), n, a.dev.Drops, b.dev.Drops)
	}
	for _, f := range got {
		if !bytes.Equal(f, frame) {
			t.Fatal("frame corrupted")
		}
	}
	if a.dev.TxPackets != n || b.dev.RxPackets != n {
		t.Fatalf("device counters tx=%d rx=%d", a.dev.TxPackets, b.dev.RxPackets)
	}
	// The notify registers are write-only: a read completes, with zeros.
	var reg []byte
	a.fab.PortOf(a.mem).Read(a.fab.PortOf(a.dev).Base()+NotifyOffset(TxQueue), 4,
		func(c pcie.Completion) { reg = bytes.Clone(c.Data) })
	eng.Run()
	if !bytes.Equal(reg, make([]byte, 4)) {
		t.Fatalf("notify register read %x, want four zero bytes", reg)
	}
}

func TestVirtioBidirectional(t *testing.T) {
	eng, a, b := pair(t)
	gotA, gotB := 0, 0
	a.drv.OnReceive = func([]byte) { gotA++ }
	b.drv.OnReceive = func([]byte) { gotB++ }
	f := make([]byte, 400)
	for i := 0; i < 10; i++ {
		a.drv.Send(f)
		b.drv.Send(f)
	}
	eng.Run()
	if gotA != 10 || gotB != 10 {
		t.Fatalf("gotA=%d gotB=%d", gotA, gotB)
	}
}

// TestVirtioRingWrap pushes many more frames than the ring size through,
// exercising index wraparound and buffer recycling.
func TestVirtioRingWrap(t *testing.T) {
	eng, a, b := pair(t) // qsize 64
	got := 0
	completions := 0
	b.drv.OnReceive = func([]byte) { got++ }
	a.drv.OnSendComplete = func() { completions++ }
	frame := make([]byte, 600)
	const n = 500
	for i := 0; i < n; i++ {
		a.drv.Send(frame)
	}
	eng.Run()
	if got != n || completions != n {
		t.Fatalf("received %d, completions %d, want %d (drops %v)", got, completions, n, b.dev.Drops)
	}
}

// TestVirtioEchoForwarding: B echoes everything back to A.
func TestVirtioEchoForwarding(t *testing.T) {
	eng, a, b := pair(t)
	back := 0
	b.drv.OnReceive = func(f []byte) { b.drv.Send(f) }
	a.drv.OnReceive = func([]byte) { back++ }
	frame := make([]byte, 1000)
	for i := 0; i < 50; i++ {
		a.drv.Send(frame)
	}
	eng.Run()
	if back != 50 {
		t.Fatalf("echoed back %d/50", back)
	}
}

// TestVirtioThroughputApproachesLink: large frames saturate a slow link.
func TestVirtioThroughputApproachesLink(t *testing.T) {
	eng := sim.NewEngine()
	a := newVNode(eng, "a")
	b := newVNode(eng, "b")
	ConnectLink(a.dev, b.dev, 10*sim.Gbps, 500*sim.Nanosecond)
	var rxBytes int64
	b.drv.OnReceive = func(f []byte) { rxBytes += int64(len(f)) }
	frame := make([]byte, 1500)
	// Keep the ring saturated using completions.
	sent := 0
	a.drv.OnSendComplete = func() {
		if sent < 2000 {
			sent++
			a.drv.Send(frame)
		}
	}
	for i := 0; i < 64; i++ {
		sent++
		a.drv.Send(frame)
	}
	eng.Run()
	gbps := float64(rxBytes) * 8 / eng.Now().Seconds() / 1e9
	if gbps < 7.5 {
		t.Fatalf("virtio goodput = %.2f Gbps on a 10G link", gbps)
	}
}

func BenchmarkDescMarshalParse(b *testing.B) {
	d := Desc{Addr: 0x1000, Len: 2048, Flags: DescFlagWrite}
	for i := 0; i < b.N; i++ {
		if _, err := ParseDesc(d.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}
