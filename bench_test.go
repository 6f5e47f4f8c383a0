// Benchmarks regenerating every table and figure of the FlexDriver
// paper's evaluation. Each benchmark runs the corresponding experiment on
// the simulated testbed and reports the headline measurement as a custom
// metric, so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// DESIGN.md's per-experiment index maps each benchmark to its paper
// artifact; EXPERIMENTS.md records paper-vs-measured values.
package flexdriver_test

import (
	"testing"

	"flexdriver"
	"flexdriver/internal/exps"
	"flexdriver/internal/memmodel"
	"flexdriver/internal/perfmodel"
)

const benchWindow = 400 * flexdriver.Microsecond

// reportChecks turns a Result's checks into benchmark metrics and fails
// the benchmark if a check regressed.
func reportChecks(b *testing.B, r *exps.Result) {
	b.Helper()
	for _, c := range r.Checks {
		if !c.OK {
			b.Errorf("%s: check %q failed (paper=%v measured=%v)", r.ID, c.Name, c.Paper, c.Measured)
		}
	}
}

// BenchmarkTable1Architectures regenerates the architecture survey row.
func BenchmarkTable1Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Table1())
	}
}

// BenchmarkTable3Memory regenerates the Table 3 memory analysis.
func BenchmarkTable3Memory(b *testing.B) {
	var shrink float64
	for i := 0; i < b.N; i++ {
		r := exps.Table3()
		reportChecks(b, r)
		shrink = memmodel.PaperParams().ShrinkRatios().Total
	}
	b.ReportMetric(shrink, "shrink-x")
}

// BenchmarkFig4MemoryScaling regenerates the Figure 4 sweep.
func BenchmarkFig4MemoryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Fig4())
	}
}

// BenchmarkTable5Area regenerates the Table 5 area estimate.
func BenchmarkTable5Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Table5())
	}
}

// BenchmarkFig7aPerfModel regenerates the Figure 7a model curves.
func BenchmarkFig7aPerfModel(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Fig7a())
		frac = perfmodel.DefaultEchoModel(100).FractionOfEthernet(512)
	}
	b.ReportMetric(frac*100, "pct-of-eth@512B")
}

// BenchmarkFig7bEchoFLDERemote measures the remote FLD-E echo curve.
func BenchmarkFig7bEchoFLDERemote(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		pts := exps.EchoBandwidth(exps.FLDERemote, []int{64, 256, 512, 1024}, benchWindow)
		gbps = pts[len(pts)-1].AchievedGbps
	}
	b.ReportMetric(gbps, "Gbps@1024B")
}

// BenchmarkFig7bEchoFLDELocal measures the local FLD-E echo curve.
func BenchmarkFig7bEchoFLDELocal(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		pts := exps.EchoBandwidth(exps.FLDELocal, []int{256, 512, 1024}, benchWindow)
		gbps = pts[len(pts)-1].AchievedGbps
	}
	b.ReportMetric(gbps, "Gbps@1024B")
}

// BenchmarkFig7bEchoFLDRRemote measures the remote FLD-R echo curve.
func BenchmarkFig7bEchoFLDRRemote(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		pts := exps.EchoBandwidth(exps.FLDRRemote, []int{512, 1024}, benchWindow)
		gbps = pts[len(pts)-1].AchievedGbps
	}
	b.ReportMetric(gbps, "Gbps@1024B")
}

// BenchmarkFig7cLatencyVsLoad measures the FLD-R latency/load curve.
func BenchmarkFig7cLatencyVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Fig7c([]float64{0.1, 0.5, 0.8, 1.03}, 2000))
	}
}

// BenchmarkTable6EchoLatency measures the 64 B RTT percentiles.
func BenchmarkTable6EchoLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Table6(4000))
	}
}

// BenchmarkMixedTracePps measures the IMC-2010 mixed forwarding rates.
func BenchmarkMixedTracePps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.MixedTrace(benchWindow))
	}
}

// BenchmarkFig8aZucThroughput measures the disaggregated-cipher curve.
func BenchmarkFig8aZucThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Fig8a([]int{256, 512, 1024}, benchWindow))
	}
}

// BenchmarkFig8bZucLatency measures cipher latency vs load.
func BenchmarkFig8bZucLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Fig8b([]float64{0.1, 0.5, 0.8}, 1200))
	}
}

// BenchmarkDefragThroughput measures all four §8.2.2 configurations.
func BenchmarkDefragThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Defrag(benchWindow))
	}
}

// BenchmarkIotAuthLineRate measures the §8.2.3 line-rate validation.
func BenchmarkIotAuthLineRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.IotLineRate(300*flexdriver.Microsecond))
	}
}

// BenchmarkIotIsolation measures the §8.2.3 tenant-isolation experiment.
func BenchmarkIotIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.IotIsolation(benchWindow))
	}
}

// BenchmarkPortabilityVirtio measures the §6 portability path: the same
// AFU behind a standardized virtio NIC.
func BenchmarkPortabilityVirtio(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		gbps = exps.VirtioEchoGoodput(1024, 26.5, benchWindow)
	}
	b.ReportMetric(gbps, "Gbps@1024B")
}

// BenchmarkClusterScaling runs a reduced §9 scale-out sweep: 1 and 4
// clients against the four-FLD-core server behind the ToR switch.
func BenchmarkClusterScaling(b *testing.B) {
	p := exps.DefaultClusterParams(benchWindow)
	p.Clients = []int{1, 4}
	for i := 0; i < b.N; i++ {
		reportChecks(b, exps.Cluster(p))
	}
}

// BenchmarkTelemetryOverhead runs the same remote FLD-E echo window with
// telemetry disabled (the facade default every other benchmark uses) and
// fully enabled (all layers instrumented + flight recorder). Comparing
// the two ns/op shows the instrumentation cost; the disabled variant
// pays only the nil-receiver branches.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var gbps float64
		for i := 0; i < b.N; i++ {
			pts := exps.EchoBandwidth(exps.FLDERemote, []int{1024}, benchWindow)
			gbps = pts[0].AchievedGbps
		}
		b.ReportMetric(gbps, "Gbps@1024B")
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, _, _ := exps.TelemetryWithRegistry(benchWindow)
			reportChecks(b, r)
		}
	})
}
