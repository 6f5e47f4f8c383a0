package fld

import (
	"bytes"
	"runtime"
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/telemetry/bindtest"
)

// minimal harness: FLD attached to a fabric with a NIC present only as a
// doorbell sink, so the module's BAR behavior can be probed directly.
func newFLD(t *testing.T, cfg Config) (*sim.Engine, *pcie.Fabric, *FLD) {
	t.Helper()
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng)
	mem := hostmem.New("mem", 1<<24)
	fab.Attach(mem, pcie.Gen3x8())
	n := nic.New("nic", eng, nic.DefaultParams())
	n.AttachPCIe(fab, pcie.Gen3x8())
	f := New(eng, cfg)
	f.AttachPCIe(fab, pcie.Gen3x8())
	f.BindNIC(n)
	f.ConfigureTxQueue(0, 1) // SQN 1 (not registered at the NIC: sink)
	return eng, fab, f
}

func TestBARLayoutNonOverlapping(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	base := f.port.Base()
	regions := [][2]uint64{
		{f.txDescBase, f.txDescSize},
		{f.txDataBase, f.txDataSize},
		{f.rxBufBase, uint64(f.cfg.RxBufBytes)},
		{f.txCQBase, uint64(f.cfg.CQEntries) * nic.CQESize},
		{f.rxCQBase, uint64(f.cfg.CQEntries) * nic.CQESize},
	}
	for i, a := range regions {
		if a[0]+a[1] > f.barSize {
			t.Fatalf("region %d exceeds BAR", i)
		}
		for j, b := range regions {
			if i == j {
				continue
			}
			if a[0] < b[0]+b[1] && b[0] < a[0]+a[1] {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
	if f.TxRingAddr(0) != base+f.txDescBase {
		t.Fatal("TxRingAddr mismatch")
	}
	if f.RxBufAddr(0) != base+f.rxBufBase {
		t.Fatal("RxBufAddr mismatch")
	}
}

// TestNewFootprint pins what building an FLD with the default
// configuration costs the host allocator before any traffic: the
// descriptor pool, its free stack and the translation banks are the
// modelled SRAM (Config.Memory prices all of them) and are grown by
// Sends and made by the first placements, not here. The budget was
// set 4 % over the 2 376 B first measured under go1.24; the build reads
// 2 456 B today (11 objects, pinned exactly; 2 440 B before each store
// held a slice of spare granules);
// before the pool and banks went lazy the same build cost 207 158 B in
// 21 objects. It measures the way testing.AllocsPerRun does: one build
// first, so one-time initialisation stays out of the window, and one P
// during it, so no other goroutine's allocations land in the totals.
func TestNewFootprint(t *testing.T) {
	const n, maxBytes, maxObjects = 100, 2_472, 11
	eng := sim.NewEngine()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	New(eng, DefaultConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		New(eng, DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("%d objects and %d bytes per FLD", objects, bytes)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("per FLD: %d bytes (budget %d), %d objects (budget %d)", bytes, maxBytes, objects, maxObjects)
	}
}

// TestOnTheFlyWQEGeneration probes the §5.2 mechanism directly: after a
// Send, reading the virtual ring through the BAR yields a well-formed
// 64-byte WQE synthesized from the 8-byte compressed descriptor, and the
// data window read through its translated address returns the payload.
func TestOnTheFlyWQEGeneration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WQEByMMIO = false
	eng, _, f := newFLD(t, cfg)
	// Instrumented, as in every cluster run: the allocation pins at the
	// end hold with the translation hit/miss handles live.
	reg := telemetry.New()
	f.SetTelemetry(reg.Scope("fld"))

	payload := bytes.Repeat([]byte{0x5A, 0x7E}, 650) // 1300 B, 3 pages
	if err := f.Send(0, payload, Metadata{Tag: 0x1234}); err != nil {
		t.Fatal(err)
	}
	eng.Run() // let the doorbell fire (the sink NIC ignores it)

	// Read the descriptor the NIC would fetch.
	raw := mmioRead(f, f.txDescBase, nic.SendWQESize)
	w, err := nic.ParseSendWQE(raw)
	if err != nil {
		t.Fatal(err)
	}
	if int(w.Len) != len(payload) {
		t.Fatalf("generated WQE length %d, want %d", w.Len, len(payload))
	}
	if !w.Signal {
		// With a fresh queue, the first descriptor may or may not be
		// signaled depending on SignalEvery; just sanity-check opcode.
		if w.Opcode != nic.OpSend {
			t.Fatalf("opcode %#x", w.Opcode)
		}
	}
	// The WQE's address must fall inside the tx data window.
	base := f.port.Base()
	if w.Addr < base+f.txDataBase || w.Addr >= base+f.txDataBase+f.txDataSize {
		t.Fatalf("WQE address %#x outside data window", w.Addr)
	}
	// Read the payload back through the translated virtual window in one
	// span (crossing page boundaries).
	got := mmioRead(f, w.Addr-base, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("translated data read mismatch")
	}
	// A span that starts and ends inside a page is the same bytes.
	if part := mmioRead(f, w.Addr-base+100, 1000); !bytes.Equal(part, payload[100:1100]) {
		t.Fatal("translated data read at an offset mismatch")
	}
	// Reads that start or end inside a descriptor return the part asked
	// for: two descriptors' worth from 16 bytes in.
	two := mmioRead(f, f.txDescBase, 3*nic.SendWQESize)
	if part := mmioRead(f, f.txDescBase+16, 2*nic.SendWQESize); !bytes.Equal(part, two[16:16+2*nic.SendWQESize]) {
		t.Fatal("descriptor read at an offset mismatch")
	}

	// Both regions generate straight into the completion: no allocation,
	// however many pages or descriptors a read spans.
	dst := make([]byte, len(payload))
	if avg := testing.AllocsPerRun(100, func() { f.MMIORead(w.Addr-base, dst) }); avg != 0 {
		t.Errorf("data-window read: %.1f allocations, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { f.MMIORead(f.txDescBase+16, dst[:2*nic.SendWQESize]) }); avg != 0 {
		t.Errorf("descriptor-ring read: %.1f allocations, want 0", avg)
	}
	var page [512]byte
	if avg := testing.AllocsPerRun(100, func() { f.txPool.read(page[:], 0, 0) }); avg != 0 {
		t.Errorf("pagePool.read: %.1f allocations, want 0", avg)
	}
}

func TestUnmappedDescriptorReadsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WQEByMMIO = false
	_, _, f := newFLD(t, cfg)
	raw := mmioRead(f, f.txDescBase+7*nic.SendWQESize, nic.SendWQESize)
	if raw[0] != 0xff {
		t.Fatalf("unposted descriptor read opcode %#x, want invalid", raw[0])
	}
}

func TestUnmappedDataReadsZero(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	got := bytes.Repeat([]byte{0xA5}, 64) // a recycled completion buffer
	f.MMIORead(f.txDataBase+12345, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unmapped data window not zero")
		}
	}
}

func TestSendRejectsBadQueue(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	if err := f.Send(99, []byte{1}, Metadata{}); err == nil {
		t.Fatal("send on bogus queue accepted")
	}
}

// TestSendRefusesAWideFlowTag: the compressed descriptor holds 24 bits
// of flow tag, so a tag of 2^24 is refused before it takes any credit,
// and the widest tag that fits reaches the generated WQE intact.
func TestSendRefusesAWideFlowTag(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WQEByMMIO = false
	eng, _, f := newFLD(t, cfg)
	slots, buf := f.Credits(0)
	if err := f.Send(0, []byte{1}, Metadata{Tag: 1 << 24}); err == nil {
		t.Fatal("flow tag 0x1000000 accepted: the descriptor would carry 0")
	}
	if s, b := f.Credits(0); s != slots || b != buf || f.Stats.TxPackets != 0 {
		t.Fatalf("the refused send took credits (%d,%d -> %d,%d) or counted a packet", slots, buf, s, b)
	}
	if err := f.Send(0, []byte{1}, Metadata{Tag: 1<<24 - 1}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	w, err := nic.ParseSendWQE(mmioRead(f, f.txDescBase, nic.SendWQESize))
	if err != nil {
		t.Fatal(err)
	}
	if w.FlowTag != 1<<24-1 {
		t.Fatalf("WQE flow tag %#x, want 0xffffff", w.FlowTag)
	}
}

func TestCreditsReflectState(t *testing.T) {
	cfg := DefaultConfig()
	_, _, f := newFLD(t, cfg)
	slots0, buf0 := f.Credits(0)
	if buf0 != cfg.TxBufBytes {
		t.Fatalf("initial buffer credits %d", buf0)
	}
	payload := make([]byte, 1024) // 2 pages
	if err := f.Send(0, payload, Metadata{}); err != nil {
		t.Fatal(err)
	}
	slots1, buf1 := f.Credits(0)
	if slots1 != slots0-1 {
		t.Fatalf("descriptor credits %d -> %d", slots0, slots1)
	}
	if buf1 != buf0-2*cfg.TxPageBytes {
		t.Fatalf("buffer credits %d -> %d", buf0, buf1)
	}
}

func TestRxBufferWriteLandsInSRAM(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	data := []byte{9, 8, 7, 6, 5}
	f.MMIOWrite(f.rxBufBase+100, data)
	got := make([]byte, len(data))
	f.rxMem.Read(got, 100)
	if !bytes.Equal(got, data) {
		t.Fatal("rx SRAM write misrouted")
	}
}

// TestRxCQEDeliversToHandler: a hand-crafted receive CQE written into the
// rx completion region streams the packet to the handler with compressed
// metadata.
func TestRxCQEDeliversToHandler(t *testing.T) {
	eng, _, f := newFLD(t, DefaultConfig())
	f.ConfigureRx(2, f.RxBufCount())
	var got []byte
	var gotMD Metadata
	f.SetHandler(HandlerFunc(func(data []byte, md Metadata) { got, gotMD = bytes.Clone(data), md }))

	pkt := bytes.Repeat([]byte{0xEE}, 200)
	f.MMIOWrite(f.rxBufBase, pkt)
	cqe := nic.CQE{Opcode: nic.CQERecv, Last: true, ChecksumOK: true,
		Queue: 2, ByteCount: uint32(len(pkt)), FlowTag: 77,
		Addr: f.port.Base() + f.rxBufBase}
	f.MMIOWrite(f.rxCQBase, cqe.Marshal())
	eng.Run()

	if !bytes.Equal(got, pkt) {
		t.Fatal("handler did not receive the packet")
	}
	if gotMD.Tag != 77 || !gotMD.Last || !gotMD.ChecksumOK {
		t.Fatalf("metadata: %+v", gotMD)
	}
	if f.Stats.RxPackets != 1 {
		t.Fatalf("rx stats: %+v", f.Stats)
	}
}

// TestRecycledRxBuffersAreDiscarded: a packet that ends its buffer
// reaches the handler whole, and only then does the FLD discard the
// buffers its completion recycled — that one, and the one the NIC left
// with strides to spare — so their SRAM reads as zero (poison under the
// pooldebug tag) while the buffer being filled keeps its bytes.
func TestRecycledRxBuffersAreDiscarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxWQEBytes = 4 << 10 // 16 strides of 256 B
	eng, _, f := newFLD(t, cfg)
	f.ConfigureRx(2, f.RxBufCount())
	f.Start()
	var got [][]byte
	f.SetHandler(HandlerFunc(func(data []byte, _ Metadata) { got = append(got, bytes.Clone(data)) }))
	var want [][]byte
	deliver := func(buf, stride, n int) {
		pkt := bytes.Repeat([]byte{byte(len(want) + 1)}, n)
		off := uint64(buf*cfg.RxWQEBytes + stride*cfg.RxStrideBytes)
		f.MMIOWrite(f.rxBufBase+off, pkt)
		cqe := nic.CQE{Opcode: nic.CQERecv, Last: true, Queue: 2, ByteCount: uint32(n),
			Index: uint16(buf)<<8 | uint16(stride), Addr: f.port.Base() + f.rxBufBase + off}
		f.MMIOWrite(f.rxCQBase, cqe.Marshal())
		want = append(want, pkt)
	}
	deliver(0, 0, 2<<10)  // buffer 0 half full
	deliver(1, 0, 3<<10)  // the NIC leaves buffer 0 for buffer 1
	deliver(1, 12, 1<<10) // and fills buffer 1
	deliver(2, 0, 1<<10)  // buffer 2 is being filled
	eng.Run()
	if len(got) != len(want) {
		t.Fatalf("handler saw %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d reached the handler as %v...", i, got[i][:8])
		}
	}
	dead := byte(0)
	if sim.PoolDebug {
		dead = 0xA5
	}
	sram := make([]byte, 3*cfg.RxWQEBytes)
	f.rxMem.Read(sram, 0)
	wantSRAM := make([]byte, 3*cfg.RxWQEBytes) // buffer 0's second half was never written
	copy(wantSRAM, bytes.Repeat([]byte{dead}, 2<<10))
	copy(wantSRAM[cfg.RxWQEBytes:], bytes.Repeat([]byte{dead}, cfg.RxWQEBytes))
	copy(wantSRAM[2*cfg.RxWQEBytes:], want[3])
	if !bytes.Equal(sram, wantSRAM) {
		t.Fatal("recycled receive buffers kept their bytes, or the filling one lost them")
	}
}

// TestMalformedCQEIgnored: garbage written into the CQ region (owner bit
// clear) must not crash or count.
func TestMalformedCQEIgnored(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	f.MMIOWrite(f.txCQBase, make([]byte, nic.CQESize))
	f.MMIOWrite(f.rxCQBase, make([]byte, nic.CQESize))
	if f.Stats.RxPackets != 0 || f.Stats.Errors != 0 {
		t.Fatalf("garbage CQE processed: %+v", f.Stats)
	}
}

// TestStatsArePublishedWhole: every field of FLD.Stats is the counter at
// its path — written once, by the data path — and a field added without
// a CounterVar line fails.
func TestStatsArePublishedWhole(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	reg := telemetry.New()
	f.SetTelemetry(reg.Scope("fld"))
	if err := f.Send(0, make([]byte, 100), Metadata{}); err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); snap.Get("fld/tx/packets") != 1 || snap.Get("fld/tx/bytes") != 100 {
		t.Fatalf("one 100 B send reads as\n%s", snap)
	}
	bindtest.Fields(t, reg, "fld/", &f.Stats, map[string]string{
		"TxPackets": "tx/packets", "TxBytes": "tx/bytes",
		"RxPackets": "rx/packets", "RxBytes": "rx/bytes",
		"CreditStalls": "credit_stalls", "Errors": "errors",
		"AccelStalls": "errors/accel_stalls", "Recoveries": "errors/recoveries",
		"Crashes": "errors/crashes", "CrashDrops": "errors/crash_drops",
		"CrashLostCQEs": "errors/crash_lost_cqes",
	})
}

// mmioRead reads n bytes of the FLD's BAR into a fresh buffer.
func mmioRead(f *FLD, off uint64, n int) []byte {
	b := make([]byte, n)
	f.MMIORead(off, b)
	return b
}
