package exps

import (
	"testing"

	"flexdriver/internal/scenario"
	"flexdriver/internal/sim"
)

// goldenClusterHash is the SHA-256 of the full telemetry snapshot of a
// fixed-seed 2-client cluster run, captured on the closure-based event
// queue before the typed-heap/pooled-record rewrite. The rewrite must be
// behavior-preserving down to the byte: same seeds, same event order,
// same counters. If a change legitimately alters simulation behavior,
// recapture the constant and say why in the commit message.
//
// Recaptured for the sharded-engine cluster: each node now runs on a
// private engine synchronized at the switch, which legitimately
// re-interleaves same-instant events across nodes.
//
// Recaptured for the failure-domain layer: every node now registers its
// crash/recovery counters (nic device/*, fld errors/crash*, swdriver
// errors/* mirrors and down/*) in the snapshot. Disabled crash classes
// consume no fault-stream ordinals and schedule no events, so only the
// snapshot's *paths* changed — the event schedule and every
// pre-existing counter value are identical.
const goldenClusterHash = "2583e9b697ba0b85437b90fff1f6a2107fd388dee68d0d152ab99fc87d385543"

func TestClusterTelemetryGolden(t *testing.T) {
	p := DefaultClusterParams(100 * sim.Microsecond)
	got := ClusterTelemetryHash(2, p)
	if got != goldenClusterHash {
		t.Fatalf("fixed-seed cluster telemetry diverged from golden snapshot:\n got  %s\n want %s",
			got, goldenClusterHash)
	}
}

// TestClusterTelemetryStable runs the same experiment twice in one process
// and demands byte-identical telemetry: freelists, pools and the heap's
// shrink policy may never leak state across runs into results.
func TestClusterTelemetryStable(t *testing.T) {
	p := DefaultClusterParams(100 * sim.Microsecond)
	a := ClusterTelemetryHash(2, p)
	b := ClusterTelemetryHash(2, p)
	if a != b {
		t.Fatalf("back-to-back fixed-seed runs diverged: %s vs %s", a, b)
	}
}

// goldenChaosScenarioHash extends the golden pin to a cluster run with
// an active fault plan: scenario seed 2 expands to a 4-core VXLAN server
// with an RDMA sidecar under PCIe drop/corrupt and wire loss/dup/delay
// injection. Fault plans draw from their own seeded random streams, so
// this pin catches determinism regressions in the injection paths (and
// their recovery machinery) that a fault-free run never exercises. Same
// rule as above: if a change legitimately alters behavior, recapture the
// constant and say why in the commit message.
//
// Recaptured for the sharded-engine cluster (see goldenClusterHash):
// per-node engines re-interleave cross-node events, and fault streams
// are now per-attachment rather than plan-global.
//
// Recaptured for the failure-domain layer (see goldenClusterHash): new
// crash/recovery counter paths in every snapshot, identical schedules.
//
// Recaptured again when scenarios grew supervision: the generator now
// samples crash–restart classes (extra draws after the existing ones,
// which can enable new fault classes for a given seed), and every host
// driver registers a supervisor scope — both legitimately change seed
// 2's plan and snapshot.
//
// Recaptured when cross-shard arrivals began to carry their own sequence
// numbers (sim.Engine.push): an arrival now runs before the local events
// of its picosecond, wherever the scheduler's windows fell. The old value,
// 441eb8d3…, was the 500 ns window's: an arrival tied with a local event
// in whichever order the barrier had merged it, and on the switch shard of
// this seed one such tie went the other way. The commit before this
// change already prints the new value for this seed at SetLookahead(0),
// 50 ns and 250 ns; no other golden moved.
//
// Recaptured when the host supervisor lost its empty QP-reconnect rung
// (reconnection takes both ends, so the watchdog sweep owns it): the
// snapshot differs only in the three supervisors' rung/reconnect paths,
// which are gone. Every counter, gauge and histogram left is identical.
const goldenChaosScenarioHash = "bb1cc1d1afba6bcb3fd29142409b6e12396e8915219a175e6f72fdc5abeb986c"

func TestChaosScenarioTelemetryGolden(t *testing.T) {
	got := ScenarioTelemetryHash(2)
	if got != goldenChaosScenarioHash {
		t.Fatalf("chaos-fault scenario telemetry diverged from golden snapshot:\n got  %s\n want %s",
			got, goldenChaosScenarioHash)
	}
}

// TestChaosScenarioTelemetryStable is the in-process double-run variant
// under fault injection: the plan's Bernoulli stream, the flap schedule
// and every recovery path must be as replayable as the clean fast path.
func TestChaosScenarioTelemetryStable(t *testing.T) {
	a := ScenarioTelemetryHash(2)
	b := ScenarioTelemetryHash(2)
	if a != b {
		t.Fatalf("back-to-back chaos scenario runs diverged: %s vs %s", a, b)
	}
}

// goldenChaosExpHash pins the chaos experiment itself — the switched
// 2-node echo under the "crash" preset, whose device/node crash–restart
// classes exercise the supervision ladder end to end. Same recapture
// rule as the other goldens.
//
// Recaptured when PCIe completion timeouts stopped being standing heap
// entries. The experiment runs to quiescence, and quiescence used to wait
// for the no-op timeouts of reads that had long settled: the run now
// ends at 610.000 µs instead of trailing to 623.360 µs. The snapshot text
// differs from the previous capture in the "# snapshot at" line and in
// the nineteen */util funcs (busy time over the clock: same numerators,
// shorter denominator) and in nothing else — every counter, gauge and
// histogram is identical.
//
// Recaptured when the experiment became a named scenario (ChaosSpec)
// judged by internal/scenario: Poisson arrivals instead of a fixed
// interval, the scenario phasing's 20 µs warmup and 60 µs drain instead
// of 150 and 250, a pinned FDB, and the per-frame judge in place of the
// experiment's own checks. The pinned run still closes a supervision
// episode, which the test asserts.
//
// Recaptured when the FLD runtime's recovery became a recovery.Ladder
// that always watches the core's crash count: the storm's one FLD reset
// now rewinds the send queue and resyncs the receive ring as soon as the
// core is back, where the flat server used to wait for a queue to error.
// Same 1064 frames sent; lost 174 → 173, duplicates 2 → 15 (the rewind's
// at-least-once replay, inside the 512-per-reset allowance). In the same
// change the client's port poll left the watchdog sweep, which had healed
// an errored ring before the supervisor's first attempt could: the
// supervisor's rung 0 now does it, and its MTTR says so. The supervisor's
// empty reconnect rung went in the same change (see
// goldenChaosScenarioHash): client0/supervisor/rung/reconnect is gone
// from the snapshot and nothing else moved with it.
const goldenChaosExpHash = "8c3bc3ba9c5e83920e62556a11ee68bcef63e9b15f4a10cae28aa1465067246a"

func TestChaosExpTelemetryGolden(t *testing.T) {
	got := ChaosTelemetryHash(7, "crash", 200*sim.Microsecond)
	if got != goldenChaosExpHash {
		t.Fatalf("fixed-seed chaos telemetry diverged from golden snapshot:\n got  %s\n want %s",
			got, goldenChaosExpHash)
	}
	s, err := ChaosSpec(7, "crash", 200*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res := scenario.Run(s); res.SupEpisodes < 1 {
		t.Fatalf("pinned crash storm closed %d supervision episodes, want at least one", res.SupEpisodes)
	}
}

// TestCluster128TelemetryStable is the large-cluster form of
// TestClusterTelemetryStable: 256 aggregated clients folded onto 128
// hosts (two per source) — the topology the hundred-node experiments
// run — must replay byte-identically. The idle-shard skip and the
// cross-shard delivery order run at a shard count two orders of magnitude
// above the 2-client pin, where a map-ordered walk over nodes or ports
// would actually show.
func TestCluster128TelemetryStable(t *testing.T) {
	p := DefaultClusterParams(40 * sim.Microsecond)
	p.Warmup = 20 * sim.Microsecond
	p.Drain = 60 * sim.Microsecond
	p.Hosts = 128
	p.PerClientGbps = 0.4
	if a, b := ClusterTelemetryHash(256, p), ClusterTelemetryHash(256, p); a != b {
		t.Fatalf("back-to-back 128-host runs diverged:\n %s\n %s", a, b)
	}
}

// The three goldens below were captured at the commit before the cluster
// experiments were rebuilt on internal/rig, so kvserve, tenancy and
// failover are held to the same bar as the cluster, chaos and scenario
// pins above: byte-identical telemetry.
// Same recapture rule.
//
// Tenancy and failover were recaptured when the host supervisor, the FLD
// runtime and the reconciler moved onto one recovery.Ladder. Failover's
// snapshot differs in one counter, serverA/fld/errors/recoveries 5 → 1:
// the runtime no longer computes a replay window for a reset the crashed
// NIC refuses. Tenancy's differs in the reconciler's telemetry (the
// ladder's detects, rung, time_to_rung and mttr names in place of
// converge) and in drain timing: a lost posting is rewound when the drain
// sees it rather than 2 µs later, and crash recovery no longer waits for
// a watchdog sweep.
const (
	goldenKVServeHash  = "56dadc93f2d61d598e3bbf98672a0958e8807fd59570e19ee5cc85a2ff9bde93"
	goldenTenancyHash  = "a986648d17886eb0ae23fc8faa62f40ab4966df24301fa789580f9da48a39ae4"
	goldenFailoverHash = "ec9524a84d4b5c693ac984bc4e5c0bb164c1bbed1b0efdec429fab4136fb7e92"
)

func TestKVServeTelemetryGolden(t *testing.T) {
	p := DefaultKVServeParams(150 * sim.Microsecond)
	p.Connections, p.Hosts = 5000, 4
	if got := KVServeTelemetryHash(p); got != goldenKVServeHash {
		t.Fatalf("fixed-seed kvserve telemetry diverged from golden snapshot:\n got  %s\n want %s",
			got, goldenKVServeHash)
	}
}

func TestTenancyTelemetryGolden(t *testing.T) {
	if got := runTenancyPoint(3, 300*sim.Microsecond).telemHash; got != goldenTenancyHash {
		t.Fatalf("fixed-seed tenancy telemetry diverged from golden snapshot:\n got  %s\n want %s",
			got, goldenTenancyHash)
	}
}

func TestFailoverTelemetryGolden(t *testing.T) {
	if _, got := failoverRun(300 * sim.Microsecond); got != goldenFailoverHash {
		t.Fatalf("fixed-seed failover telemetry diverged from golden snapshot:\n got  %s\n want %s",
			got, goldenFailoverHash)
	}
}
