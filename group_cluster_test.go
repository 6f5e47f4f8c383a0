package flexdriver

import (
	"fmt"
	"testing"

	"flexdriver/internal/swdriver"
)

// runPingCluster builds an n-host cluster in which every host streams
// stamped UDP frames at its ring neighbor through the ToR switch, runs
// it (optionally forcing zero lookahead), and returns the telemetry hash
// and the total frames received. It is the smallest all-cross-shard
// workload: every frame crosses two shard boundaries (sender→switch,
// switch→receiver).
func runPingCluster(t *testing.T, n, perHost int, zeroLookahead bool) (string, int) {
	t.Helper()
	reg := NewRegistry()
	cl := NewCluster(WithTelemetry(reg))
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
	ref, want := runPingCluster(t, n, perHost, false)
	if want != n*perHost {
		t.Fatalf("reference run delivered %d frames, want %d", want, n*perHost)
	}
	hash, got := runPingCluster(t, n, perHost, true)
	if got != want {
		t.Errorf("zero-lookahead run delivered %d frames, want %d", got, want)
	}
	if hash != ref {
		t.Errorf("zero-lookahead telemetry diverged:\n got  %s\n want %s", hash, ref)
	}
}
