package flexdriver

import (
	"fmt"
	"testing"

	"flexdriver/internal/swdriver"
)

// runPingCluster builds an n-host cluster in which every host streams
// stamped UDP frames at its ring neighbor through the ToR switch, runs
// it with the given worker count (optionally forcing zero lookahead),
// and returns the telemetry hash and the total frames received. It is
// the smallest all-cross-shard workload: every frame crosses two shard
// boundaries (sender→switch, switch→receiver).
func runPingCluster(t *testing.T, n, workers, perHost int, zeroLookahead bool) (string, int) {
	t.Helper()
	reg := NewRegistry()
	cl := NewCluster(WithTelemetry(reg), WithWorkers(workers))
	if zeroLookahead {
		// Lookahead below the true link latency is conservative-safe: the
		// scheduler degenerates to single-instant lockstep rounds but must
		// produce the identical schedule.
		cl.Group().SetLookahead(0)
	}

	hosts := make([]*Host, n)
	ports := make([]*swdriver.EthPort, n)
	recv := make([]int, n)
	for i := 0; i < n; i++ {
		h := cl.AddHost(fmt.Sprintf("host%d", i))
		port := h.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
		i := i
		port.OnReceive = func([]byte, swdriver.RxMeta) { recv[i]++ }
		hosts[i], ports[i] = h, port
	}
	for i := 0; i < n; i++ {
		dst := hosts[(i+1)%n]
		frame := clusterUDPFrame(hosts[i].NIC, dst.NIC, uint16(4000+i), 7777, 256)
		heng := hosts[i].Engine()
		port := ports[i]
		sent := 0
		var tick func()
		tick = func() {
			if sent >= perHost {
				return
			}
			port.Send(frame)
			sent++
			heng.After(800*Nanosecond, tick)
		}
		heng.After(Duration(i)*100*Nanosecond, tick)
	}
	cl.Run()

	total := 0
	for _, r := range recv {
		total += r
	}
	if pending := cl.Pending(); pending != 0 {
		t.Fatalf("cluster left %d events pending after Run", pending)
	}
	return reg.Snapshot().Hash(), total
}

// TestClusterZeroLookahead pins the degenerate-topology case: with the
// lookahead forced to zero the scheduler falls back to single-instant
// lockstep rounds, and the run must still complete, deliver everything,
// and reproduce the normal-lookahead schedule byte-for-byte.
func TestClusterZeroLookahead(t *testing.T) {
	const n, perHost = 4, 40
	ref, want := runPingCluster(t, n, 1, perHost, false)
	if want != n*perHost {
		t.Fatalf("reference run delivered %d frames, want %d", want, n*perHost)
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 8}} {
		hash, got := runPingCluster(t, n, tc.workers, perHost, true)
		if got != want {
			t.Errorf("%s zero-lookahead run delivered %d frames, want %d", tc.name, got, want)
		}
		if hash != ref {
			t.Errorf("%s zero-lookahead telemetry diverged:\n got  %s\n want %s", tc.name, hash, ref)
		}
	}
}

// TestClusterSeqParTelemetry is the facade-level determinism pin: the
// same topology must hash identically at any worker count.
func TestClusterSeqParTelemetry(t *testing.T) {
	ref, want := runPingCluster(t, 6, 1, 60, false)
	for _, w := range []int{2, 4, 8} {
		hash, got := runPingCluster(t, 6, w, 60, false)
		if got != want || hash != ref {
			t.Errorf("workers=%d diverged: frames %d vs %d, hash %s vs %s", w, got, want, hash, ref)
		}
	}
}

// TestClusterParallelStress leans on the barrier and merge paths with a
// wider topology and more traffic — most valuable under -race, where it
// sweeps the coordinator/worker handoff for ordering bugs.
func TestClusterParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	ref, want := runPingCluster(t, 16, 1, 120, false)
	for _, w := range []int{4, 8} {
		hash, got := runPingCluster(t, 16, w, 120, false)
		if got != want || hash != ref {
			t.Errorf("workers=%d diverged: frames %d vs %d, hash %s vs %s", w, got, want, hash, ref)
		}
	}
}
