package exps

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"flexdriver/internal/scenario"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
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
	checkGolden(t, "cluster", runClusterPoint(2, p).snap)
}

// TestClusterTelemetryStable runs the same experiment twice in one process
// and demands byte-identical telemetry: freelists, pools and the heap's
// shrink policy may never leak state across runs into results.
func TestClusterTelemetryStable(t *testing.T) {
	p := DefaultClusterParams(100 * sim.Microsecond)
	a := runClusterPoint(2, p).snap.Hash()
	b := runClusterPoint(2, p).snap.Hash()
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
// change already prints the new value for this seed at lookaheads 0,
// 50 ns and 250 ns; no other golden moved.
//
// Recaptured when the host supervisor lost its empty QP-reconnect rung
// (reconnection takes both ends, so the watchdog sweep owns it): the
// snapshot differs only in the three supervisors' rung/reconnect paths,
// which are gone. Every counter, gauge and histogram left is identical.
const goldenChaosScenarioHash = "bb1cc1d1afba6bcb3fd29142409b6e12396e8915219a175e6f72fdc5abeb986c"

func TestChaosScenarioTelemetryGolden(t *testing.T) {
	checkGolden(t, "chaos-scenario", scenario.Run(scenario.Generate(2)).Snapshot)
}

// TestChaosScenarioTelemetryStable is the in-process double-run variant
// under fault injection: the plan's Bernoulli stream, the flap schedule
// and every recovery path must be as replayable as the clean fast path.
func TestChaosScenarioTelemetryStable(t *testing.T) {
	a := scenario.Run(scenario.Generate(2)).Hash
	b := scenario.Run(scenario.Generate(2)).Hash
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
	s, err := ChaosSpec(7, "crash", 200*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.Run(s)
	checkGolden(t, "chaos", res.Snapshot)
	if res.SupEpisodes < 1 {
		t.Fatalf("pinned crash storm closed %d supervision episodes, want at least one", res.SupEpisodes)
	}
}

// TestCluster128TelemetryStable is the large-cluster form of
// TestClusterTelemetryStable: 256 aggregated clients folded onto 128
// hosts (two per source) — the topology the hundred-node experiments
// run — must replay byte-identically. The conduits' arrival order runs at
// a node count two orders of magnitude above the 2-client pin, where a
// map-ordered walk over nodes or ports would actually show.
func TestCluster128TelemetryStable(t *testing.T) {
	p := DefaultClusterParams(40 * sim.Microsecond)
	p.Warmup = 20 * sim.Microsecond
	p.Drain = 60 * sim.Microsecond
	p.Hosts = 128
	p.PerClientGbps = 0.4
	if a, b := runClusterPoint(256, p).snap.Hash(), runClusterPoint(256, p).snap.Hash(); a != b {
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
	checkGolden(t, "kvserve", runKVServePoint(p).snap)
}

func TestTenancyTelemetryGolden(t *testing.T) {
	checkGolden(t, "tenancy", runTenancyPoint(3, 300*sim.Microsecond).snap)
}

func TestFailoverTelemetryGolden(t *testing.T) {
	_, snap := failoverRun(300 * sim.Microsecond)
	checkGolden(t, "failover", snap)
}

// goldens maps each golden's name to its hash. The snapshot text the
// hash is the SHA-256 of is checked in as testdata/golden-<name>.txt.
var goldens = map[string]string{
	"cluster":        goldenClusterHash,
	"chaos-scenario": goldenChaosScenarioHash,
	"chaos":          goldenChaosExpHash,
	"kvserve":        goldenKVServeHash,
	"tenancy":        goldenTenancyHash,
	"failover":       goldenFailoverHash,
}

// updateGolden rewrites the snapshot texts from the runs. Recapture a
// hash and its text together, and say why in the commit message.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-*.txt from the golden runs")

func goldenPath(name string) string { return filepath.Join("testdata", "golden-"+name+".txt") }

// checkGolden compares a run's final telemetry snapshot with its golden
// hash. On a mismatch it names the metric paths that moved, against the
// snapshot text checked in beside the hash.
func checkGolden(t *testing.T, name string, snap telemetry.Snapshot) {
	t.Helper()
	want := goldens[name]
	if *updateGolden {
		if err := os.WriteFile(goldenPath(name), []byte(snap.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := snap.Hash(); got != want {
		t.Fatalf("%s telemetry diverged from golden snapshot:\n got  %s\n want %s\n%s",
			name, got, want, goldenDiff(name, snap))
	}
}

// goldenDiff lists the paths whose values differ between snap and the
// golden text: counter and histogram-count deltas through Snapshot.Diff,
// changed gauges and funcs, and paths only one side has.
func goldenDiff(name string, snap telemetry.Snapshot) string {
	text, err := os.ReadFile(goldenPath(name))
	if err != nil {
		return err.Error()
	}
	golden := parseSnapshot(string(text))
	d := snap.Diff(golden)
	var lines []string
	for p, v := range d.Counters {
		if _, ok := golden.Counters[p]; !ok {
			lines = append(lines, fmt.Sprintf("  + %s = %d", p, snap.Counters[p]))
		} else if v != 0 {
			lines = append(lines, fmt.Sprintf("    %s %d -> %d (%+d)", p, golden.Counters[p], snap.Counters[p], v))
		}
	}
	for p, h := range d.Hists {
		if _, ok := golden.Hists[p]; !ok {
			lines = append(lines, fmt.Sprintf("  + %s n=%d", p, snap.Hists[p].Count))
		} else if h.Count != 0 || strconv.FormatFloat(h.Mean, 'f', 2, 64) != strconv.FormatFloat(golden.Hists[p].Mean, 'f', 2, 64) {
			lines = append(lines, fmt.Sprintf("    %s %+v -> %+v", p, golden.Hists[p], snap.Hists[p]))
		}
	}
	for p, g := range snap.Gauges {
		if old, ok := golden.Gauges[p]; !ok || old != g {
			lines = append(lines, fmt.Sprintf("    %s %+v -> %+v", p, old, g))
		}
	}
	for p, f := range snap.Funcs {
		if old, ok := golden.Funcs[p]; !ok || strconv.FormatFloat(old, 'f', 4, 64) != strconv.FormatFloat(f, 'f', 4, 64) {
			lines = append(lines, fmt.Sprintf("    %s %.4f -> %.4f", p, old, f))
		}
	}
	has := func(s telemetry.Snapshot, p string) bool {
		_, c := s.Counters[p]
		_, g := s.Gauges[p]
		_, h := s.Hists[p]
		_, f := s.Funcs[p]
		return c || g || h || f
	}
	gone := func(p string) {
		if !has(snap, p) {
			lines = append(lines, "  - "+p)
		}
	}
	for p := range golden.Counters {
		gone(p)
	}
	for p := range golden.Gauges {
		gone(p)
	}
	for p := range golden.Hists {
		gone(p)
	}
	for p := range golden.Funcs {
		gone(p)
	}
	slices.Sort(lines)
	const max = 60
	if len(lines) > max {
		lines = append(lines[:max], fmt.Sprintf("  ... %d more", len(lines)-max))
	}
	return fmt.Sprintf("%d paths moved against %s:\n%s", len(lines), goldenPath(name), strings.Join(lines, "\n"))
}

// parseSnapshot reads a snapshot back from its String dump: a counter is
// an integer, a gauge "v (high h)", a histogram "n=c mean=m" and a func
// a float. The "# snapshot at" header is skipped. Parse errors are
// dropped: TestGoldenSnapshotTexts holds every golden text to parsing
// back to itself.
func parseSnapshot(text string) telemetry.Snapshot {
	s := telemetry.Snapshot{Counters: map[string]int64{}, Gauges: map[string]telemetry.GaugeValue{},
		Hists: map[string]telemetry.HistValue{}, Funcs: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] == "#" {
			continue
		}
		p := f[0]
		switch {
		case strings.HasPrefix(f[1], "n=") && len(f) == 3:
			n, _ := strconv.ParseInt(f[1][len("n="):], 10, 64)
			m, _ := strconv.ParseFloat(strings.TrimPrefix(f[2], "mean="), 64)
			s.Hists[p] = telemetry.HistValue{Count: n, Mean: m}
		case len(f) == 4:
			v, _ := strconv.ParseInt(f[1], 10, 64)
			h, _ := strconv.ParseInt(strings.TrimSuffix(f[3], ")"), 10, 64)
			s.Gauges[p] = telemetry.GaugeValue{Value: v, High: h}
		default:
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				s.Counters[p] = v
			} else {
				s.Funcs[p], _ = strconv.ParseFloat(f[1], 64)
			}
		}
	}
	return s
}

// TestGoldenSnapshotTexts: each checked-in snapshot text hashes to its
// golden constant, and parses back to the same dump, so a mismatch's
// path list is read against the very run the hash pins.
func TestGoldenSnapshotTexts(t *testing.T) {
	for name, want := range goldens {
		text, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(text); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: text hashes to %x, want %s", goldenPath(name), sum, want)
		}
		body := string(text)
		if strings.HasPrefix(body, "#") {
			body = body[strings.IndexByte(body, '\n')+1:]
		}
		if got := parseSnapshot(body).String(); got != body {
			t.Errorf("%s does not parse back to its own dump", goldenPath(name))
		}
	}
}
