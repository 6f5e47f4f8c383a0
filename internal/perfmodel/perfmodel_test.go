package perfmodel

import (
	"testing"
	"testing/quick"
)

func TestEthernetGoodput(t *testing.T) {
	// 512 B at 25 Gbps: 25 * 512/532 = 24.06.
	got := EthernetGoodput(25, 512)
	if got < 24 || got > 24.1 {
		t.Fatalf("eth goodput = %.2f", got)
	}
}

// TestFig7aShape25G: the paper's first claim — at 25 GbE the PCIe
// overhead never prevents line rate, for any packet size.
func TestFig7aShape25G(t *testing.T) {
	m := DefaultEchoModel(25)
	for _, s := range []int{64, 128, 256, 512, 1024, 1500} {
		eth := EthernetGoodput(25, s)
		if got := m.Goodput(s); got < eth*0.999 {
			t.Fatalf("size %d: FLD %.2f < Ethernet %.2f — 25G config must meet line rate", s, got, eth)
		}
	}
}

// TestFig7aShape50And100G: the paper's second claim — FLD reaches >= 95%
// of the Ethernet goodput at 512 B for both 50 and 100 Gbps.
func TestFig7aShape50And100G(t *testing.T) {
	for _, rate := range []float64{50, 100} {
		m := DefaultEchoModel(rate)
		frac := m.FractionOfEthernet(512)
		if frac < 0.95 {
			t.Fatalf("%v Gbps at 512 B: %.1f%% of Ethernet, want >= 95%%", rate, frac*100)
		}
		// And small packets must fall below line rate (the tradeoff the
		// figure shows).
		if f64 := m.FractionOfEthernet(64); f64 >= 0.95 {
			t.Fatalf("%v Gbps at 64 B: %.1f%% — small packets should be PCIe-bound", rate, f64*100)
		}
	}
}

// TestFig7aMonotone: the efficiency fraction grows with packet size when
// compared at TLP-boundary-aligned sizes (within a MaxPayload bucket the
// ceil() in TLP splitting makes tiny local dips, which is physical).
func TestFig7aMonotone(t *testing.T) {
	m := DefaultEchoModel(100)
	f := func(a, b uint8) bool {
		x := 256 * (1 + int(a)%16)
		y := 256 * (1 + int(b)%16)
		if x > y {
			x, y = y, x
		}
		return m.FractionOfEthernet(x) <= m.FractionOfEthernet(y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWQEByMMIOHelpsSmallPackets(t *testing.T) {
	withMMIO := DefaultEchoModel(100)
	without := withMMIO
	without.FLD.WQEByMMIO = false
	if withMMIO.PCIeGoodput(64) <= without.PCIeGoodput(64) {
		t.Fatal("WQE-by-MMIO should improve small-packet goodput")
	}
}

func TestSelectiveSignallingHelps(t *testing.T) {
	m := DefaultEchoModel(100)
	noSig := m
	noSig.FLD.SignalEvery = 1
	if m.PCIeGoodput(64) <= noSig.PCIeGoodput(64) {
		t.Fatal("selective completion signalling should improve goodput")
	}
}

func TestPpsCapBindsSmallPackets(t *testing.T) {
	m := DefaultEchoModel(100)
	m.PpsCap = 10e6 // 10 Mpps
	// 64 B at 10 Mpps = 5.12 Gbps.
	if got := m.Goodput(64); got > 5.13 || got < 5.0 {
		t.Fatalf("pps-capped goodput = %.2f, want ~5.12", got)
	}
}

func TestSweepCoversSizes(t *testing.T) {
	pts := DefaultEchoModel(50).Sweep([]int{64, 512, 1500})
	if len(pts) != 3 || pts[0].Size != 64 || pts[2].FLDGbps <= pts[0].FLDGbps {
		t.Fatalf("sweep malformed: %+v", pts)
	}
}

// TestZucModelShape: the paper reports 17.6 Gbps at >= 512 B = 89% of the
// model's expectation, so the model itself should predict ~19-20 Gbps
// there, and the model should be link-bound at large sizes.
func TestZucModelShape(t *testing.T) {
	m := DefaultZucModel()
	g512 := m.Goodput(512)
	if g512 < 18 || g512 > 22 {
		t.Fatalf("ZUC model at 512 B = %.2f Gbps, want ~19-20", g512)
	}
	// Small requests are overhead-dominated.
	if m.Goodput(64) > m.Goodput(512) {
		t.Fatal("model should grow with request size")
	}
	// Large requests approach (but never exceed) the 25G link.
	g4k := m.Goodput(4096)
	if g4k > 25 || g4k < 20 {
		t.Fatalf("ZUC model at 4 KiB = %.2f Gbps", g4k)
	}
}
