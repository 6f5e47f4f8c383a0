package fldvirtio

import (
	"bytes"
	"testing"

	"flexdriver/internal/fld"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/virtio"
)

// bed builds the portability topology: a client host with a virtio NIC
// and software driver, cabled to a server whose virtio NIC is driven by
// the FLD adapter on the FPGA — no server CPU anywhere.
type bed struct {
	eng     *sim.Engine
	client  *virtio.SoftDriver
	adapter *Adapter
	devA    *virtio.NetDevice
	devB    *virtio.NetDevice
	reg     *telemetry.Registry // the server fabric's links, by device name
}

func newBed(t *testing.T) *bed {
	t.Helper()
	eng := sim.NewEngine()

	// Client host.
	fabA := pcie.NewFabric(eng)
	memA := hostmem.New("client-mem", 1<<26)
	fabA.Attach(memA, pcie.Gen3x8())
	devA := virtio.NewNetDevice("client-vnic", eng, virtio.DefaultNetDeviceParams())
	devA.AttachPCIe(fabA, pcie.Gen3x8())
	client := virtio.NewSoftDriver(eng, fabA, memA, devA, 64, 2048)

	// Server: virtio NIC + FLD adapter, no host involvement.
	fabB := pcie.NewFabric(eng)
	reg := telemetry.New()
	fabB.SetTelemetry(reg.Scope("server"))
	devB := virtio.NewNetDevice("server-vnic", eng, virtio.DefaultNetDeviceParams())
	devB.AttachPCIe(fabB, pcie.Gen3x8())
	ad := New(eng, DefaultConfig())
	ad.AttachPCIe(fabB, pcie.Gen3x8())
	ad.BindDevice(devB)

	virtio.ConnectLink(devA, devB, 25*sim.Gbps, 500*sim.Nanosecond)
	return &bed{eng: eng, client: client, adapter: ad, devA: devA, devB: devB, reg: reg}
}

// TestSameAFUWorksOverVirtio: an accelerator written against the standard
// fld.Handler contract runs unmodified behind the virtio adapter.
func TestSameAFUWorksOverVirtio(t *testing.T) {
	b := newBed(t)
	// The echo AFU, expressed exactly as it is for the ConnectX flavor.
	b.adapter.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) {
		if err := b.adapter.Send(data, md); err != nil {
			t.Errorf("adapter send: %v", err)
		}
	}))

	var got [][]byte
	b.client.OnReceive = func(f []byte) { got = append(got, f) }
	frame := bytes.Repeat([]byte{0xC3}, 700)
	const n = 40
	for i := 0; i < n; i++ {
		b.client.Send(frame)
	}
	b.eng.Run()

	if len(got) != n {
		t.Fatalf("echoed %d/%d (devB drops %v)", len(got), n, b.devB.Drops)
	}
	for _, f := range got {
		if !bytes.Equal(f, frame) {
			t.Fatal("frame corrupted over virtio")
		}
	}
	if b.adapter.RxPackets != n || b.adapter.TxPackets != n {
		t.Fatalf("adapter counters rx=%d tx=%d", b.adapter.RxPackets, b.adapter.TxPackets)
	}
	// Both ends of the server's peer-to-peer traffic are on the fabric's
	// ledger under their own names: the NIC reads rings and buffers out
	// of the adapter's BAR, the adapter rings the NIC's notify registers.
	snap := b.reg.Snapshot()
	for _, link := range []string{"server/fld-virtio/up/bytes", "server/server-vnic/up/bytes"} {
		if snap.Get(link) == 0 {
			t.Errorf("%s is 0 after %d echoes", link, n)
		}
	}
}

// TestVirtioAdapterRingWrap: sustained traffic wraps every ring index and
// recycles all buffers.
func TestVirtioAdapterRingWrap(t *testing.T) {
	b := newBed(t)
	b.adapter.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) {
		b.adapter.Send(data, md)
	}))
	got := 0
	b.client.OnReceive = func([]byte) { got++ }
	frame := make([]byte, 300)
	const n = 400 // >> 64-entry rings
	for i := 0; i < n; i++ {
		b.client.Send(frame)
	}
	b.eng.Run()
	if got != n {
		t.Fatalf("echoed %d/%d", got, n)
	}
	if b.adapter.Credits() != DefaultConfig().QueueSize {
		t.Fatalf("tx credits leaked: %d", b.adapter.Credits())
	}
}

// TestAdapterCreditsExhaust: with the device unable to drain (no link),
// Send returns ErrNoCredits after the ring fills and recovers once the
// device retires chains.
func TestAdapterCreditsExhaust(t *testing.T) {
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng)
	dev := virtio.NewNetDevice("vnic", eng, virtio.DefaultNetDeviceParams())
	dev.AttachPCIe(fab, pcie.Gen3x8())
	ad := New(eng, DefaultConfig())
	ad.AttachPCIe(fab, pcie.Gen3x8())
	ad.BindDevice(dev) // no link: tx frames drop at the device

	notified := 0
	ad.SetOnCredits(func() { notified++ })
	data := make([]byte, 100)
	sent := 0
	for ad.Send(data, fld.Metadata{}) == nil {
		sent++
		if sent > 10000 {
			t.Fatal("credits never exhausted")
		}
	}
	if sent != DefaultConfig().QueueSize {
		t.Fatalf("sent %d before stall, want %d", sent, DefaultConfig().QueueSize)
	}
	// The device consumes (and drops at the missing link) the frames,
	// retiring descriptors; credits return.
	eng.Run()
	if ad.Credits() != DefaultConfig().QueueSize {
		t.Fatalf("credits after drain = %d", ad.Credits())
	}
	if notified == 0 {
		t.Fatal("no credit notifications")
	}
}

// TestAdapterBARRegions: region resolution covers the whole BAR without
// overlap.
func TestAdapterBARRegions(t *testing.T) {
	ad := New(sim.NewEngine(), DefaultConfig())
	// Writing at each region offset must land in the matching slice.
	ad.MMIOWrite(ad.txBufOff, []byte{0xAB})
	if ad.txBufs[0] != 0xAB {
		t.Fatal("tx buffer region misrouted")
	}
	ad.MMIOWrite(ad.rxBufOff, []byte{0xCD})
	if ad.rxBufs[0] != 0xCD {
		t.Fatal("rx buffer region misrouted")
	}
	got := ad.MMIORead(ad.txDescOff, virtio.DescSize)
	if len(got) != virtio.DescSize {
		t.Fatal("descriptor read size wrong")
	}
}
