package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// asMainEnv makes the test binary behave as the bench command, so the
// tests can exercise the real parent/child re-exec path.
const asMainEnv = "FLEXBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tiny is the internal scale the tier-1 run uses: every window at its
// floor, 2000 connections, 4 scenarios.
const tiny = 0.004

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func tinyRep(t *testing.T, workload string, seed int64) repResult {
	t.Helper()
	r, err := runRep(repSpec{Workload: workload, Seed: seed, Scale: tiny, Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// Every workload completes with no failed op, passes its output checks,
// reports every end-to-end metric as a positive number, repeats exactly
// at one seed and differs at another.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a := tinyRep(t, w.Name, 1)
			if a.Attempted == 0 || a.Failed != 0 || a.Ops != a.Attempted {
				t.Fatalf("ops %d attempted %d failed %d", a.Ops, a.Attempted, a.Failed)
			}
			for _, c := range a.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			vals := e2eOf(a)
			for _, d := range e2eDefs {
				if v, ok := vals[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			for _, n := range countNames {
				if _, ok := a.Counts[n]; !ok {
					t.Errorf("count ledger lacks %s", n)
				}
			}
			b := tinyRep(t, w.Name, 1)
			if a.SimHash == "" || a.SimHash != b.SimHash {
				t.Errorf("same seed, sim_hash %q vs %q", a.SimHash, b.SimHash)
			}
			if !sameFloats(a.Counts, b.Counts) || !sameFloats(a.Model, b.Model) {
				t.Errorf("same seed, ledgers differ:\n%v\n%v", a.Counts, b.Counts)
			}
			if c := tinyRep(t, w.Name, 2); c.SimHash == a.SimHash {
				t.Errorf("seeds 1 and 2 share sim_hash %s", a.SimHash)
			}
			res := fold(&w, 1, tiny, []repResult{a, b})
			if !res.ok() {
				t.Errorf("folded result not ok: %+v", res.Checks)
			}
		})
	}
}

// A rep that disagrees with its siblings, or hung, fails the fold.
func TestFoldCatchesDivergenceAndHang(t *testing.T) {
	w := &workloads[0]
	a := tinyRep(t, w.Name, 1)
	b := a
	b.SimHash = "different"
	if res := fold(w, 1, tiny, []repResult{a, b}); res.ok() {
		t.Error("fold accepted reps with different sim_hash")
	}
	res := fold(w, 1, tiny, []repResult{a, {repSpec: a.repSpec, Hung: true}})
	if res.ok() || res.Failed != a.Attempted || res.Attempted != 2*a.Attempted {
		t.Errorf("hung rep: failed %d of %d, ok=%v; want every op of the hung rep failed", res.Failed, res.Attempted, res.ok())
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json and the code name the same workloads and metrics, with
// the same units, directions and bounds, and every name is well formed.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, code %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	same := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code emits %d", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
				t.Errorf("%s: name %q malformed or repeated", kind, d.Name)
			}
			seen[d.Name] = true
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, code %v", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eDefs, true)
	same("per_layer", bj.PerLayer, perLayerDefs(), false)
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(bj.PerLayer))
	}
}

// lastJSONLine runs the test binary as the bench command and decodes the
// contract line.
func lastJSONLine(t *testing.T, args ...string) contractResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// The command BENCHMARK.json names emits exactly the listed metrics:
// end-to-end untraced, per-layer traced (re-exec'd children, CPU profile
// through `go tool pprof`, probes, Workers=2 and colocated reps).
func TestContractLineEmitsEveryName(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		trace string
		want  []benchMetric
	}{{"0", bj.EndToEnd}, {"1", bj.PerLayer}} {
		res := lastJSONLine(t, "--workload", "cluster16_switch", "--seed", "3", "--seconds", "0",
			"--trace", tc.trace, "-scale", "0.004", "-scratch", dir)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", tc.trace, m.Name, got, ok, m.Unit)
			}
		}
		if tc.trace == "1" {
			if v := res.Metrics["cpu_share.sim"].Value; !(v > 0) {
				t.Errorf("cpu_share.sim = %v, want the event engine in the profile", v)
			}
			if v := res.Metrics["span.sim.group.colocated_ratio"].Value; !(v > 0) {
				t.Errorf("colocated_ratio = %v on cluster16_switch", v)
			}
		}
	}
}

// The parent kills a child that outlives its deadline and reports a hang.
func TestHangGuardKillsChild(t *testing.T) {
	t.Setenv(asMainEnv, "1")
	start := time.Now()
	res, err := spawnRep(repSpec{Workload: "scenario_sweep", Seed: 1, Scale: 1, Workers: 1}, 20*time.Millisecond)
	if !errors.Is(err, errHung) || !res.Hung {
		t.Fatalf("spawnRep = %+v, %v; want a hung rep", res.Hung, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("guard took %v to fire", d)
	}
}

const cannedTop = `File: flexbench
Type: cpu
Time: 2026-09-28 13:38:47 UTC
Duration: 6.03s, Total samples = 5.84s (96.85%)
Showing nodes accounting for 5.84s, 100% of 5.84s total
      flat  flat%   sum%        cum   cum%
     0.70s 11.97% 11.97%      0.70s 11.97%  runtime.memmove
     0.60s 10.26% 22.23%      0.70s 11.97%  flexdriver/internal/sim.(*Engine).pop
     0.45s  7.69% 29.92%      0.60s 10.26%  flexdriver/internal/sim.(*Engine).push
     0.30s  5.13% 35.05%      0.30s  5.13%  flexdriver/internal/netpkt.Toeplitz (inline)
     0.25s  4.27% 39.32%      0.25s  4.27%  flexdriver/internal/sim.BitRate.Serialize (inline)
     0.15s  2.56% 41.88%      0.40s  6.84%  flexdriver/internal/pcie.(*Port).Read
     0.10s  1.71% 43.59%      0.70s 11.97%  flexdriver/internal/nic.(*NIC).Ingress.func1.1
     0.10s  1.71% 45.30%      0.10s  1.71%  flexdriver/internal/accel/zuc.(*State).f
     0.05s  0.85% 46.15%      0.05s  0.85%  flexdriver/internal/accel/kv.(*AFU).Receive
     0.05s  0.85% 47.00%      0.25s  4.27%  flexdriver/internal/hostmem.(*Memory).MMIOWrite
     0.05s  0.85% 47.85%      0.05s  0.85%  flexdriver/internal/ctrlplane.(*Reconciler).step
     0.05s  0.85% 48.70%      0.35s  5.99%  flexdriver.aggFire
     0.05s  0.85% 49.55%      0.05s  0.85%  flexdriver.(*AggregatedClients).siftDown
     0.04s  0.68% 50.23%      0.04s  0.68%  main.(*echoGen).next
     0.30s  5.13% 55.36%      0.55s  9.41%  runtime.mallocgc
     0.20s  3.42% 58.78%      0.20s  3.42%  runtime.scanobject
     0.06s  1.03% 59.81%      0.06s  1.03%  crypto/sha256.block
`

func TestAggregateTop(t *testing.T) {
	got := aggregateTop(cannedTop)
	want := map[string]float64{
		"sim": 10.26 + 7.69 + 4.27, "netpkt": 5.13, "pcie": 2.56, "nic": 1.71,
		"accel.zuc": 1.71, "accel.kv": 0.85, "hostmem": 0.85, "other": 0.85,
		"workload": 0.85 + 0.85, "bench": 0.68,
		"runtime": 11.97 + 5.13 + 3.42 + 1.03,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("layer %s: %.2f%%, want %.2f%%", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if s := profileSamples(cannedTop); math.Abs(s-5.84*profileHz) > 1e-6 {
		t.Errorf("profileSamples = %v", s)
	}
	if f := focusShare(cannedTop); f != 100 {
		t.Errorf("focusShare = %v", f)
	}
	sh := splitRuntime(got, 9.41, 3.42)
	if v := sh["cpu_share.runtime.other"]; math.Abs(v-(want["runtime"]-9.41-3.42)) > 1e-9 {
		t.Errorf("runtime.other = %v", v)
	}
	total := 0.0
	for _, l := range layers {
		if _, ok := sh["cpu_share."+l]; !ok {
			t.Errorf("cpu_share.%s missing", l)
		}
		total += sh["cpu_share."+l]
	}
	if math.Abs(total-59.81) > 0.02 {
		t.Errorf("shares sum to %.2f%%, listing accounts for 59.81%%", total)
	}
}

// summarize agrees with Python's statistics.quantiles(v, n=4), which is
// what the acceptance driver uses for spreads.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize([]float64{10, 12, 11, 15, 9, 14, 13, 16, 8, 17})
	// statistics.quantiles([...], n=4) → [9.75, 12.5, 15.25]
	if s.Q1 != 9.75 || s.Median != 12.5 || s.Q3 != 15.25 || s.N != 10 {
		t.Errorf("summary %+v", s)
	}
	if got := summarize([]float64{3}).Median; got != 3 {
		t.Errorf("single value median %v", got)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(v ...float64) summary { return summarize(v) }
	d := metricDef{Name: "host_ops_per_s", Better: "higher", Bound: 0.10}
	if _, v := verdict(d, mk(100, 101, 99, 100), mk(85, 86, 84, 85)); v != "worse" {
		t.Errorf("15%% drop: %s", v)
	}
	if _, v := verdict(d, mk(100, 101, 99, 100), mk(97, 98, 96, 97)); v != "ok" {
		t.Errorf("3%% drop, tight runs: %s", v)
	}
	if _, v := verdict(d, mk(100, 130, 80, 100, 90, 120), mk(97, 125, 78, 99, 92, 118)); v != "unresolved" {
		t.Errorf("wide overlapping runs: %s", v)
	}
	lo := metricDef{Name: "setup_s", Better: "lower", Bound: 0.15, Floor: 0.010}
	if _, v := verdict(lo, mk(1, 1, 1), mk(1.3, 1.3, 1.3)); v != "worse" {
		t.Errorf("set-up 30%% slower: %s", v)
	}
	if _, v := verdict(lo, mk(1, 1, 1), mk(0.5, 0.5, 0.5)); v != "ok" {
		t.Errorf("set-up twice as fast: %s", v)
	}
	// Under the 10 ms floor neither a doubled median nor a wide spread counts.
	if _, v := verdict(lo, mk(0.001, 0.003, 0.0005), mk(0.002, 0.004, 0.001)); v != "ok" {
		t.Errorf("1 ms set-up doubled, under the floor: %s", v)
	}
}

// -compare fails on a workload or a deterministic value that only the
// second file has, as it does on one only the first has.
func TestCompareFlagsNamesOnlyInB(t *testing.T) {
	write := func(name string, rf resultFile) string {
		path := t.TempDir() + "/" + name
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	wl := func(name string, counts map[string]float64) wlResult {
		return wlResult{Name: name, SimHash: "h", Counts: counts, E2E: map[string]summary{}}
	}
	base := resultFile{Workloads: []wlResult{wl("echo64_pair", map[string]float64{"count.nic.drops": 0})}}
	a := write("a.json", base)
	if rc := compareMain(a, a); rc != 0 {
		t.Fatalf("a file against itself: exit %d", rc)
	}
	extraCount := resultFile{Workloads: []wlResult{wl("echo64_pair", map[string]float64{"count.nic.drops": 0, "count.new": 1})}}
	if rc := compareMain(a, write("b1.json", extraCount)); rc != 1 {
		t.Errorf("count only in b: exit %d, want 1", rc)
	}
	extraWorkload := resultFile{Workloads: append([]wlResult{wl("new_workload", nil)}, base.Workloads...)}
	if rc := compareMain(a, write("b2.json", extraWorkload)); rc != 1 {
		t.Errorf("workload only in b: exit %d, want 1", rc)
	}
}

// The reference kernel adds nothing to the allocation metrics it is
// interleaved with, and a clock that ran it reads a positive speed.
func TestRefKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { refRun(1000) }); n != 0 {
		t.Errorf("refRun allocates %v objects per call", n)
	}
	var c refClock
	if c.slowdown() != 1 {
		t.Errorf("idle clock slowdown %v, want 1", c.slowdown())
	}
	c.tick(10000)
	if s := c.slowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown %v after 10000 steps", s)
	}
}

// A rep builds its topology once before it reads the heap and the peak
// RSS; the repeated set-up samples come after and still land in setup_s.
func TestRepReportsMedianSetup(t *testing.T) {
	r := tinyRep(t, "echo64_pair", 1)
	if !(r.SetupS > 0) || !(r.RunS > 0) || !(r.RunWallS > 0) || !(r.HostSpeed > 0) {
		t.Errorf("setup %v run %v wall %v speed %v, want all positive", r.SetupS, r.RunS, r.RunWallS, r.HostSpeed)
	}
}

// Every probe runs and reports every name it is listed under.
func TestProbesTiny(t *testing.T) {
	got := runProbes(0.001)
	for _, n := range probeNames() {
		v, ok := got[n]
		if !ok || math.IsNaN(v) || v < 0 {
			t.Errorf("probe %s = %v (present %v)", n, v, ok)
		}
	}
}
