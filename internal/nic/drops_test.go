package nic

import (
	"testing"

	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/telemetry/bindtest"
)

// TestDropReasonsHaveCounters asserts the DropReason enumeration is
// total: every reason is unique, and recording a drop for any reason
// increments both Stats.Drops and the matching drops/<reason> telemetry
// counter — so no drop site can lose a packet invisibly.
func TestDropReasonsHaveCounters(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.New()
	n := New("nic", eng, DefaultParams())
	n.SetTelemetry(reg.Scope("nic"))

	seen := map[DropReason]bool{}
	for _, reason := range AllDropReasons {
		if reason == "" {
			t.Fatal("empty drop reason in AllDropReasons")
		}
		if seen[reason] {
			t.Fatalf("duplicate drop reason %q", reason)
		}
		seen[reason] = true
		n.drop(reason)
	}

	snap := reg.Snapshot()
	for _, reason := range AllDropReasons {
		if got := n.Stats.Drops[reason]; got != 1 {
			t.Errorf("Stats.Drops[%q] = %d, want 1", reason, got)
		}
		if got := snap.Get("nic/drops/" + string(reason)); got != 1 {
			t.Errorf("telemetry counter drops/%s = %d, want 1", reason, got)
		}
	}

	// The paired bookkeeping must agree in aggregate too.
	var stats, tel int64
	for _, v := range n.Stats.Drops {
		stats += v
	}
	for p, v := range snap.Counters {
		if len(p) > len("nic/drops/") && p[:len("nic/drops/")] == "nic/drops/" {
			tel += v
		}
	}
	if stats != tel || stats != int64(len(AllDropReasons)) {
		t.Fatalf("aggregate mismatch: stats=%d telemetry=%d want %d",
			stats, tel, len(AllDropReasons))
	}
}

// TestStatsArePublishedWhole: every scalar of NIC.Stats is the counter
// at its path (the Drops map is the documented two-sided exception,
// covered above), and a field added without a CounterVar line fails.
func TestStatsArePublishedWhole(t *testing.T) {
	reg := telemetry.New()
	n := New("nic", sim.NewEngine(), DefaultParams())
	n.SetTelemetry(reg.Scope("nic"))
	bindtest.Fields(t, reg, "nic/", &n.Stats, map[string]string{
		"TxPackets": "tx/packets", "TxBytes": "tx/bytes",
		"RxPackets": "rx/packets", "RxBytes": "rx/bytes",
		"QueueErrors": "errors/queue", "QueueRecoveries": "errors/recovered",
		"DeviceCrashes": "device/crashes", "DeviceFLRs": "device/flrs",
	})
}
