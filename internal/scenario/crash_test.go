package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestGeneratedCrashScenarioOpensEpisodes pins one generated seed whose
// driver-crash schedule provably drives the supervision ladder: the run
// must stay violation-free AND close at least one recovery episode, so
// the crash classes can never silently degrade into no-ops (a watchdog
// that stops kicking, a Restart that silently self-heals everything).
// If genFaults' mapping changes, regenerate: find a seed whose spec
// carries drv.crash and whose run reports SupEpisodes > 0.
func TestGeneratedCrashScenarioOpensEpisodes(t *testing.T) {
	s := Generate(27)
	if !strings.Contains(s.Faults, "drv.crash") {
		t.Fatalf("seed 27 no longer generates a driver-crash plan: %q", s.Faults)
	}
	r := Run(s)
	if len(r.Violations) > 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.SupEpisodes == 0 {
		t.Fatal("no supervision episodes closed — the crash plan never exercised the ladder")
	}
}

// TestForcedNodeCrashScenarioClean runs a hand-built spec that stacks the
// heaviest failure domains — whole-node crash–restart plus ToR switch
// reboots — on a topology with an RDMA sidecar, and demands every global
// invariant (conservation, recovery to Ready, bounded MTTR, quiescence,
// replay determinism) still holds.
func TestForcedNodeCrashScenarioClean(t *testing.T) {
	spec := "seed=11 clients=2 cores=2 rate=25 queue=64 pattern=poisson " +
		"frames=256:256 gbps=2 window=80 path=eth rdma=1 " +
		"faults=node.crash.every=35us,node.crash.for=7us,sw.reboot.every=55us,sw.reboot.for=5us"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(s) // Check adds the replay-determinism invariant
	if len(r.Violations) > 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.Injected.NodeCrashes == 0 || r.Injected.SwReboots == 0 {
		t.Fatalf("crash classes did not fire: %+v", r.Injected)
	}
}

// TestSeed240Quiesces pins the scenario that used to spin forever: an rpc
// server plus the TCP sidecar under switch reboots. A reboot empties the
// FDB, the sidecar's payload-less ACKs flood to the server, and while the
// server's rule matched everything its kv cores answered them BadReq with
// the *sidecar's* MAC as source — poisoning the FDB so every further ACK
// was steered to the server and answered again. The server now steers
// only frames addressed to it; the run must end, clean, and quickly.
func TestSeed240Quiesces(t *testing.T) {
	s := Generate(240)
	if s.Proto != "rpc" || !strings.Contains(s.Faults, "sw.reboot") {
		t.Fatalf("seed 240 no longer draws the rpc + switch-reboot scenario: %v", s)
	}
	done := make(chan *Result, 1)
	go func() { done <- Check(s) }()
	select {
	case r := <-done:
		if len(r.Violations) > 0 {
			t.Fatalf("violations: %v", r.Violations)
		}
		if r.TCPSent == 0 || r.Injected.SwReboots == 0 {
			t.Fatalf("the sidecar or the reboots did not run: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("seed 240 did not quiesce within 5 s")
	}
}
