package exps

import (
	"testing"

	"flexdriver"
)

// The experiment tests run shortened versions of every reproduction and
// assert the paper's qualitative claims via each Result's checks. The
// full-length runs live in the root bench_test.go and cmd/fldreport.

func requirePassed(t *testing.T, r *Result) {
	t.Helper()
	t.Log("\n" + r.String())
	if !r.Passed() {
		t.Errorf("%s: checks failed", r.ID)
	}
}

func TestStaticTables(t *testing.T) {
	for _, r := range []*Result{Table1(), Table2(), Table3(), Fig4(), Table5(), Fig7a(), Table4()} {
		requirePassed(t, r)
	}
}

func TestFig7bEchoBandwidth(t *testing.T) {
	requirePassed(t, Fig7b([]int{64, 128, 256, 512, 1024}, 350*flexdriver.Microsecond))
}

func TestFig7cLatencyVsLoad(t *testing.T) {
	requirePassed(t, Fig7c([]float64{0.1, 0.5, 0.8, 1.03}, 2500))
}

func TestTable6EchoLatency(t *testing.T) {
	requirePassed(t, Table6(4000))
}

func TestMixedTrace(t *testing.T) {
	requirePassed(t, MixedTrace(500*flexdriver.Microsecond))
}

func TestFig8aZucThroughput(t *testing.T) {
	requirePassed(t, Fig8a([]int{256, 512, 1024}, 350*flexdriver.Microsecond))
}

func TestFig8bZucLatency(t *testing.T) {
	requirePassed(t, Fig8b([]float64{0.1, 0.5, 0.8}, 1200))
}

func TestDefragThroughput(t *testing.T) {
	requirePassed(t, Defrag(500*flexdriver.Microsecond))
}

func TestIotLineRate(t *testing.T) {
	requirePassed(t, IotLineRate(300*flexdriver.Microsecond))
}

func TestIotIsolation(t *testing.T) {
	requirePassed(t, IotIsolation(500*flexdriver.Microsecond))
}

func TestIotSecurity(t *testing.T) {
	requirePassed(t, IotInvalidTokensDropped(250*flexdriver.Microsecond))
}

// TestEchoBandwidthAppliesOptions passes a registry through WithTelemetry
// to each mode: every node of every bed must report nonzero counters into
// it, so no bed drops the caller's options.
func TestEchoBandwidthAppliesOptions(t *testing.T) {
	for mode, nodes := range map[EchoMode][]string{
		FLDERemote: {"client", "server"}, FLDELocal: {"innova"},
		FLDRRemote: {"client", "server"}, CPURemote: {"client", "server"},
	} {
		reg := flexdriver.NewRegistry()
		EchoBandwidth(mode, []int{256}, 20*flexdriver.Microsecond, flexdriver.WithTelemetry(reg))
		snap := reg.Snapshot()
		for _, node := range nodes {
			if snap.Sum(node+"/", "") == 0 {
				t.Errorf("%v: no nonzero counter under %s/", mode, node)
			}
		}
	}
}

// TestEchoBandwidthPointsSane: every measured point is positive and never
// meaningfully exceeds its model (conservation sanity).
func TestEchoBandwidthPointsSane(t *testing.T) {
	for _, mode := range []EchoMode{FLDERemote, FLDRRemote} {
		for _, p := range EchoBandwidth(mode, []int{256, 1024}, 250*flexdriver.Microsecond) {
			if p.AchievedGbps <= 0 {
				t.Errorf("%v size %d: zero throughput", mode, p.Size)
			}
			if p.AchievedGbps > 1.05*p.ModelGbps {
				t.Errorf("%v size %d: achieved %.2f exceeds model %.2f",
					mode, p.Size, p.AchievedGbps, p.ModelGbps)
			}
		}
	}
}
