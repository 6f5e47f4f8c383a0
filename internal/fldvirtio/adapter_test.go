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
	fabB    *pcie.Fabric
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
	return &bed{eng: eng, client: client, adapter: ad, devA: devA, devB: devB, fabB: fabB, reg: reg}
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

// TestAdapterBARRegions: the BAR is one memory. What the device stores
// anywhere in it reads back from there, the transmit queue's rings and
// buffers included, and the receive queue's descriptors sit posted in it
// before any device is bound.
func TestAdapterBARRegions(t *testing.T) {
	eng := sim.NewEngine()
	ad := New(eng, DefaultConfig())
	base := ad.AttachPCIe(pcie.NewFabric(eng), pcie.Gen3x8()).Base()
	if err := ad.Send([]byte{0xAB, 0xCD}, fld.Metadata{}); err != nil {
		t.Fatal(err)
	}
	posted, tx := 0, virtio.Desc{}
	for off := uint64(0); off+virtio.DescSize <= ad.BARSize(); off += virtio.DescSize {
		d, _ := virtio.ParseDesc(mmioRead(ad, off, virtio.DescSize))
		inBAR := d.Addr >= base && d.Addr+uint64(d.Len) <= base+ad.BARSize()
		switch {
		case inBAR && d.Flags == virtio.DescFlagWrite && d.Len == uint32(DefaultConfig().BufBytes):
			posted++
		case inBAR && d.Flags == 0 && d.Len == 2:
			tx = d
		}
	}
	if posted != DefaultConfig().QueueSize {
		t.Fatalf("%d posted receive descriptors in the BAR, want %d", posted, DefaultConfig().QueueSize)
	}
	if got := mmioRead(ad, tx.Addr-base, 2); !bytes.Equal(got, []byte{0xAB, 0xCD}) {
		t.Fatalf("transmit descriptor %+v points at %x, want abcd", tx, got)
	}
	ad.MMIOWrite(ad.BARSize()-1, []byte{0x5A})
	if got := mmioRead(ad, ad.BARSize()-1, 1); got[0] != 0x5A {
		t.Fatalf("last BAR byte reads %x after a store of 5a", got)
	}
}

// usedRing finds the BAR offset of a queue's used ring.
func usedRing(q *virtio.DriverQueue) uint64 {
	off := uint64(0)
	for !q.UsedHeader(off) {
		off += 64
	}
	return off
}

// TestAdapterRefusesBadUsedElement: the used ring is device input. A peer
// on the fabric stores an element naming a descriptor the table does not
// have (or more bytes than a buffer holds) and bumps the used index: the
// adapter counts it and delivers and reposts nothing. At the parent head
// 65 of 64 indexed past the buffer SRAM and panicked; head 64 delivered a
// frame of zeros and reposted a descriptor that does not exist.
func TestAdapterRefusesBadUsedElement(t *testing.T) {
	for _, bad := range []virtio.UsedElem{{ID: 65, Len: 100}, {ID: 64, Len: 100}, {ID: 3, Len: 2049}} {
		b := newBed(t)
		b.adapter.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) {
			t.Errorf("%+v delivered %d bytes to the accelerator", bad, len(data))
		}))
		b.eng.Run()
		peer := b.fabB.Attach(hostmem.New("peer", 1<<12), pcie.Gen3x8())
		used := b.fabB.PortOf(b.adapter).Base() + usedRing(b.adapter.rx)
		peer.Write(used+4, virtio.MarshalUsedElem(bad), func() {
			peer.Write(used+2, []byte{1, 0}, nil)
		})
		b.eng.Run()
		if b.adapter.rx.BadUsed != 1 || b.adapter.RxPackets != 0 {
			t.Errorf("%+v: BadUsed=%d RxPackets=%d, want 1 and 0", bad, b.adapter.rx.BadUsed, b.adapter.RxPackets)
		}
	}
}

// TestDeviceReadFaultLosesNothing: drop the device's k-th DMA read while
// the adapter transmits eight frames, then send a ninth. A lost avail-ring
// read (k ≤ 2) consumes nothing, so the next notify reads the same entries
// and all nine frames go out; a lost descriptor or buffer read retires its
// chain unsent, so eight do. Either way every credit comes back. At the
// parent the entries of a failed ring read were skipped for good (56/64
// credits), and a chain cut short went on the wire as a TxPacket.
func TestDeviceReadFaultLosesNothing(t *testing.T) {
	for k := 1; k <= 6; k++ {
		eng := sim.NewEngine()
		fab := pcie.NewFabric(eng)
		dev := virtio.NewNetDevice("vnic", eng, virtio.DefaultNetDeviceParams())
		devPort := dev.AttachPCIe(fab, pcie.Gen3x8())
		ad := New(eng, DefaultConfig())
		ad.AttachPCIe(fab, pcie.Gen3x8())
		ad.BindDevice(dev)
		eng.Run() // the receive buffers' avail entries are read fault-free

		reads := 0
		fab.SetFaults(&pcie.FaultHooks{Drop: func(p *pcie.Port, typ telemetry.TLPType) bool {
			if p == devPort && typ == telemetry.MemRd {
				reads++
			}
			return p == devPort && typ == telemetry.MemRd && reads == k
		}})
		for i := 0; i < 8; i++ {
			if err := ad.Send(make([]byte, 100), fld.Metadata{}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if err := ad.Send(make([]byte, 100), fld.Metadata{}); err != nil {
			t.Fatal(err)
		}
		eng.Run()

		wantTx := int64(8)
		if k <= 2 {
			wantTx = 9
		}
		if ad.Credits() != DefaultConfig().QueueSize || dev.Drops["dma-error"] != 1 || dev.TxPackets != wantTx {
			t.Errorf("k=%d: credits %d/%d, dma-error %d, TxPackets %d (want %d)", k,
				ad.Credits(), DefaultConfig().QueueSize, dev.Drops["dma-error"], dev.TxPackets, wantTx)
		}
	}
}

// TestAdapterRefusesBadSizes: a frame larger than a buffer is an error
// that costs no credit, and a ring that is not a power of two is a
// construction-time bug.
func TestAdapterRefusesBadSizes(t *testing.T) {
	eng := sim.NewEngine()
	ad := New(eng, DefaultConfig())
	ad.AttachPCIe(pcie.NewFabric(eng), pcie.Gen3x8())
	if err := ad.Send(make([]byte, DefaultConfig().BufBytes+1), fld.Metadata{}); err == nil || ad.Credits() != DefaultConfig().QueueSize {
		t.Fatalf("oversize send: err %v, credits %d", err, ad.Credits())
	}
	defer func() {
		if recover() == nil {
			t.Error("a 48-entry ring did not panic")
		}
	}()
	New(eng, Config{QueueSize: 48, BufBytes: 2048})
}

// mmioRead reads n bytes of the adapter's BAR into a fresh buffer.
func mmioRead(ad *Adapter, off uint64, n int) []byte {
	b := make([]byte, n)
	ad.MMIORead(off, b)
	return b
}
