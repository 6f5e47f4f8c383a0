package pcie

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/sim"
)

func TestLinkRates(t *testing.T) {
	c := Gen3x8()
	// Gen3 x8: 8 lanes * 8 GT/s * 128/130 = 63.015 Gbps raw.
	if got := float64(c.RawRate()) / 1e9; math.Abs(got-63.015) > 0.01 {
		t.Fatalf("gen3 x8 raw = %v Gbps", got)
	}
	if got := float64(c.EffectiveRate()) / 1e9; math.Abs(got-61.75) > 0.05 {
		t.Fatalf("gen3 x8 effective = %v Gbps", got)
	}
	g4 := Gen3x8()
	g4.Gen, g4.Lanes = 4, 16
	if got := float64(g4.RawRate()) / 1e9; math.Abs(got-252.06) > 0.1 {
		t.Fatalf("gen4 x16 raw = %v Gbps", got)
	}
}

func TestWireBytes(t *testing.T) {
	c := Gen3x8()
	// 4-byte doorbell: one posted TLP.
	if got := c.WriteWireBytes(4); got != 4+24 {
		t.Fatalf("doorbell wire = %d", got)
	}
	// 512 B write splits into two 256 B TLPs.
	if got := c.WriteWireBytes(512); got != 512+2*24 {
		t.Fatalf("512B write wire = %d", got)
	}
	// Read request for 1024 B: two MRd at MRRS=512.
	if got := c.ReadReqWireBytes(1024); got != 2*24 {
		t.Fatalf("read req wire = %d", got)
	}
	// Completion for 300 B: two CplD.
	if got := c.CompletionWireBytes(300); got != 300+2*20 {
		t.Fatalf("cpl wire = %d", got)
	}
	if got := c.WriteWireBytes(0); got != 24 {
		t.Fatalf("0B write wire = %d", got)
	}
}

func TestWireBytesMonotone(t *testing.T) {
	c := Gen3x8()
	f := func(a, b uint16) bool {
		x, y := int(a%8192), int(b%8192)
		if x > y {
			x, y = y, x
		}
		return c.WriteWireBytes(x) <= c.WriteWireBytes(y) &&
			c.CompletionWireBytes(x) <= c.CompletionWireBytes(y) &&
			c.ReadReqWireBytes(x) <= c.ReadReqWireBytes(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestFabric(t *testing.T) (*sim.Engine, *Fabric, *hostmem.Memory, *Port, *hostmem.Memory, *Port) {
	t.Helper()
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	a := hostmem.New("devA", 1<<20)
	b := hostmem.New("devB", 1<<20)
	pa := fab.Attach(a, Gen3x8())
	pb := fab.Attach(b, Gen3x8())
	return eng, fab, a, pa, b, pb
}

func TestFabricAddressing(t *testing.T) {
	_, fab, a, pa, b, pb := newTestFabric(t)
	if pa.Base() == pb.Base() {
		t.Fatal("devices share a BAR base")
	}
	if fab.AddrOf(a, 0) != pa.Base() || fab.AddrOf(b, 100) != pb.Base()+100 {
		t.Fatal("AddrOf mismatch")
	}
	if fab.PortOf(a) != pa || fab.PortOf(b) != pb {
		t.Fatal("PortOf mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("unmapped access should panic")
		}
	}()
	fab.Write(0x1, []byte{0, 0, 0, 0})
}

func TestUntimedReadWrite(t *testing.T) {
	_, fab, _, _, b, pb := newTestFabric(t)
	addr := fab.AddrOf(b, 0x200)
	fab.Write(addr, []byte{1, 2, 3, 4})
	if got := b.ReadAt(0x200, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("device state %v", got)
	}
	_ = pb
}

func TestTimedWriteDelivers(t *testing.T) {
	eng, fab, _, pa, b, _ := newTestFabric(t)
	addr := fab.AddrOf(b, 0x100)
	var doneAt sim.Time
	pa.Write(addr, []byte{0xAA, 0xBB}, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt == 0 {
		t.Fatal("write completion never fired")
	}
	// Two hops of 60ns propagation plus serialization: > 120ns.
	if doneAt < 120*sim.Nanosecond {
		t.Fatalf("write completed too fast: %v", doneAt)
	}
	if got := b.ReadAt(0x100, 2); !bytes.Equal(got, []byte{0xAA, 0xBB}) {
		t.Fatalf("data not delivered: %v", got)
	}
}

func TestTimedReadRoundTrip(t *testing.T) {
	eng, fab, _, pa, b, _ := newTestFabric(t)
	b.WriteAt(0x300, []byte{9, 8, 7, 6})
	addr := fab.AddrOf(b, 0x300)
	var got []byte
	var doneAt sim.Time
	pa.Read(addr, 4, func(c Completion) {
		if !c.OK() {
			t.Errorf("read completion status = %v", c.Status)
		}
		got, doneAt = bytes.Clone(c.Data), eng.Now()
	})
	eng.Run()
	if !bytes.Equal(got, []byte{9, 8, 7, 6}) {
		t.Fatalf("read returned %v", got)
	}
	// Four hops of 60 ns each: at least 240 ns round trip.
	if doneAt < 240*sim.Nanosecond {
		t.Fatalf("read RTT too fast: %v", doneAt)
	}
}

// TestBandwidthAccounting drives a stream of writes and checks the achieved
// throughput matches the effective link rate times the goodput fraction.
func TestBandwidthAccounting(t *testing.T) {
	eng, fab, _, pa, b, _ := newTestFabric(t)
	addr := fab.AddrOf(b, 0)
	const pkt = 1024
	const n = 2000
	var lastDone sim.Time
	payload := make([]byte, pkt)
	for i := 0; i < n; i++ {
		pa.Write(addr, payload, func() { lastDone = eng.Now() })
	}
	eng.Run()
	cfg := pa.cfg
	wire := cfg.WriteWireBytes(pkt)
	wantGoodput := float64(cfg.EffectiveRate()) * float64(pkt) / float64(wire)
	gotGoodput := float64(n*pkt*8) / lastDone.Seconds()
	if math.Abs(gotGoodput-wantGoodput)/wantGoodput > 0.02 {
		t.Fatalf("goodput = %.2f Gbps, want %.2f Gbps", gotGoodput/1e9, wantGoodput/1e9)
	}
}

// TestBidirectionalIndependence checks that opposite directions do not
// contend: simultaneous A->B and B->A streams both run at full rate.
func TestBidirectionalIndependence(t *testing.T) {
	eng, fab, a, pa, b, pb := newTestFabric(t)
	addrB := fab.AddrOf(b, 0)
	addrA := fab.AddrOf(a, 0)
	const pkt = 2048
	const n = 500
	var doneAB, doneBA sim.Time
	payload := make([]byte, pkt)
	for i := 0; i < n; i++ {
		pa.Write(addrB, payload, func() { doneAB = eng.Now() })
		pb.Write(addrA, payload, func() { doneBA = eng.Now() })
	}
	eng.Run()
	// Each direction alone would take n*wire_serialization; if they
	// contended they would take ~2x. Check both finish within 5% of the
	// single-stream time.
	cfg := pa.cfg
	single := float64(n) * float64(cfg.EffectiveRate().Serialize(cfg.WriteWireBytes(pkt)))
	for _, done := range []sim.Time{doneAB, doneBA} {
		if float64(done) > 1.10*single {
			t.Fatalf("direction took %v, single-stream estimate %v — directions contended", done, sim.Time(single))
		}
	}
}

func TestPortByteCounters(t *testing.T) {
	eng, fab, _, pa, b, pb := newTestFabric(t)
	addr := fab.AddrOf(b, 0)
	pa.Write(addr, make([]byte, 100), nil)
	eng.Run()
	if pa.UpBytes != int64(pa.cfg.WriteWireBytes(100)) {
		t.Fatalf("up bytes = %d", pa.UpBytes)
	}
	if pb.DownBytes != int64(pb.cfg.WriteWireBytes(100)) {
		t.Fatalf("down bytes = %d", pb.DownBytes)
	}
}
