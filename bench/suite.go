package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression (per-layer metrics carry none); Floor is
// the absolute difference below which -compare does not call two medians
// apart at all.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
	Floor  float64
}

// e2eDefs is the gated end-to-end family, in report order. BENCHMARK.json
// repeats it; the tier-1 test keeps the two in step.
//
// model_agree_pct is 100 − model_err_pct: the gate is a share of the
// baseline, which a figure near zero cannot carry, so the error is gated
// through its complement (a bound of 0.005 is half a point of error).
// fail_share is gated exactly through ops_failed/ops_attempted.
var e2eDefs = []metricDef{
	{Name: "host_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.010},
	{Name: "host_allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "host_alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "model_agree_pct", Unit: "%", Better: "higher", Bound: 0.005},
}

// e2eOf extracts one rep's end-to-end values.
func e2eOf(r repResult) map[string]float64 {
	ops := float64(r.Ops)
	if ops == 0 {
		ops = 1
	}
	v := map[string]float64{
		"setup_s":                 r.SetupS,
		"host_allocs_per_op":      float64(r.Mallocs) / ops,
		"host_alloc_bytes_per_op": float64(r.AllocBytes) / ops,
		"live_heap_mb":            r.LiveHeapMB,
		"peak_rss_mb":             r.PeakRSSMB,
		"model_agree_pct":         100 - r.ModelErrPct,
	}
	if r.RunS > 0 {
		v["host_ops_per_s"] = float64(r.Ops) / r.RunS
	}
	return v
}

// wlResult is one workload's section of a result file.
type wlResult struct {
	Name      string             `json:"name"`
	Seed      int64              `json:"seed"`
	Scale     float64            `json:"scale"`
	E2E       map[string]summary `json:"end_to_end"`
	Attempted int64              `json:"ops_attempted"` // summed over reps
	Failed    int64              `json:"ops_failed"`
	FailShare float64            `json:"fail_share"`
	// ModelErrPct, SimHash, Model and Counts are deterministic: every
	// rep of one (workload, seed, scale) must agree on them.
	ModelErrPct float64            `json:"model_err_pct"`
	SimHash     string             `json:"sim_hash"`
	Model       map[string]float64 `json:"model"`
	Counts      map[string]float64 `json:"counts"`
	OpsPerRep   int64              `json:"ops_per_rep"`
	RunS        summary            `json:"run_s"`      // reference seconds of the run section
	RunWallS    summary            `json:"run_wall_s"` // the same as the wall clock read it
	HostSpeed   summary            `json:"host_speed"` // how fast the box was against the reference (1 = reference)
	Checks      []check            `json:"checks"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Spans       []span             `json:"traced_spans,omitempty"`
}

func (w *wlResult) ok() bool {
	if w.Failed != 0 {
		return false
	}
	for _, c := range w.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (w *wlResult) addCheck(name string, ok bool, format string, args ...any) {
	w.Checks = append(w.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// hangDeadline is 10× a rep's expected wall time.
func hangDeadline(w *workload, scale float64) time.Duration {
	expect := w.ExpectS * scale
	if expect < 1 {
		expect = 1
	}
	return time.Duration(10 * expect * float64(time.Second))
}

// collect runs timed reps (Workers=1, one fresh child each) of every
// listed workload, interleaved round-robin so a noisy stretch of the
// machine lands on all of them alike. It stops after `reps` rounds, or —
// when budget is set — once the children have measured for that long
// (never before three rounds). A hung child ends collection at once.
func collect(ws []*workload, seed int64, scale float64, reps int, budget time.Duration) (map[string][]repResult, error) {
	got := map[string][]repResult{}
	var measured time.Duration
	for r := 0; ; r++ {
		if reps > 0 && r >= reps {
			return got, nil
		}
		if budget > 0 && r >= 3 && measured >= budget {
			return got, nil
		}
		for _, w := range ws {
			t := time.Now()
			res, err := spawnRep(repSpec{Workload: w.Name, Seed: seed, Scale: scale, Workers: 1},
				hangDeadline(w, scale))
			measured += time.Since(t)
			got[w.Name] = append(got[w.Name], res)
			if err != nil {
				return got, err
			}
		}
	}
}

// fold turns a workload's reps into its result section and runs the
// cross-rep checks: every rep's own checks, one sim_hash, one ledger.
func fold(w *workload, seed int64, scale float64, reps []repResult) wlResult {
	out := wlResult{Name: w.Name, Seed: seed, Scale: scale, E2E: map[string]summary{}}
	vals := map[string][]float64{}
	var runs, walls, speeds []float64
	// A check holds for the workload when it held in every rep; the
	// detail kept is the first failure's, else the first rep's.
	verdicts := map[string]*check{}
	var order []string
	note := func(c check) {
		v, seen := verdicts[c.Name]
		if !seen {
			order = append(order, c.Name)
			kept := c
			verdicts[c.Name] = &kept
		} else if v.OK && !c.OK {
			*v = c
		}
	}
	var first *repResult
	same := true
	var perRep int64
	for i := range reps {
		if r := &reps[i]; !r.Hung && r.Attempted > perRep {
			perRep = r.Attempted
		}
	}
	for i := range reps {
		r := &reps[i]
		if r.Hung {
			// Every op of a rep that hit the hang deadline failed.
			n := max(perRep, 1)
			out.Attempted += n
			out.Failed += n
			note(check{Name: "no_hang", Detail: "a child was killed at 10× its expected time"})
			continue
		}
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range e2eOf(*r) {
			vals[k] = append(vals[k], v)
		}
		runs = append(runs, r.RunS)
		walls = append(walls, r.RunWallS)
		speeds = append(speeds, r.HostSpeed)
		for _, c := range r.Checks {
			note(c)
		}
		if first == nil {
			first = r
			continue
		}
		if r.SimHash != first.SimHash || !sameFloats(r.Counts, first.Counts) ||
			!sameFloats(r.Model, first.Model) || r.ModelErrPct != first.ModelErrPct {
			same = false
		}
	}
	for _, d := range e2eDefs {
		out.E2E[d.Name] = summarize(vals[d.Name])
	}
	out.RunS, out.RunWallS, out.HostSpeed = summarize(runs), summarize(walls), summarize(speeds)
	if out.Attempted > 0 {
		out.FailShare = float64(out.Failed) / float64(out.Attempted)
	}
	for _, n := range order {
		out.Checks = append(out.Checks, *verdicts[n])
	}
	if first != nil {
		out.SimHash, out.Model, out.Counts = first.SimHash, first.Model, first.Counts
		out.ModelErrPct, out.OpsPerRep = first.ModelErrPct, first.Ops
		out.addCheck("reps_share_one_hash", same, "%d reps, sim_hash %.12s…", len(runs), first.SimHash)
	}
	out.addCheck("no_failed_ops", out.Failed == 0, "%d of %d ops failed", out.Failed, out.Attempted)
	return out
}

func sameFloats(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// checkWorkers2 runs one rep at Workers=2 and requires the sequential
// reference hash: the parallel schedule must be byte-identical. Its run
// time against the Workers=1 median is span.sim.group.par2_speedup. A
// SeqOnly workload is skipped and returns a zero rep.
func checkWorkers2(w *workload, res *wlResult) (repResult, error) {
	if w.SeqOnly {
		return repResult{}, nil
	}
	r, err := spawnRep(repSpec{Workload: w.Name, Seed: res.Seed, Scale: res.Scale, Workers: 2},
		hangDeadline(w, res.Scale))
	if err != nil {
		res.addCheck("workers2_hash_equal", false, "%v", err)
		return r, err
	}
	res.addCheck("workers2_hash_equal", r.SimHash == res.SimHash && r.SimHash != "",
		"Workers=2 %.12s… vs Workers=1 %.12s…", r.SimHash, res.SimHash)
	return r, nil
}

// scratchDir holds the traced pass's CPU profiles; it lives inside the
// checkout and .gitignore names it.
var scratchDir = ".bench_build"

// tracedScale stretches the traced rep: the profiler on this class of
// box delivers 260–290 samples per second of run whatever rate is asked,
// and the per-layer shares want ≥ 2000 samples with a quarter to spare —
// 10 s or more of every workload's run on a quiet box.
const tracedScale = 10

// tracedPass produces a workload's per-layer families: one long rep with
// CPU profile and generator spans on, its untraced twin run right before
// it (the pair gives the tracing overhead), one rep at Workers=2 (already
// run by the caller, passed as w2), one colocated rep where a switch
// exists, plus the exact ledger from the untraced reps. probeVals is
// shared across workloads (the probes do not depend on one).
func tracedPass(w *workload, res *wlResult, w2 repResult, probeVals map[string]float64) error {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return fmt.Errorf("create scratch dir: %w", err)
	}
	prof := filepath.Join(scratchDir, fmt.Sprintf("%s.%d.cpu.pprof", w.Name, os.Getpid()))
	defer os.Remove(prof)
	scale := res.Scale * tracedScale
	twin, err := spawnRep(repSpec{Workload: w.Name, Seed: res.Seed, Scale: scale, Workers: 1},
		hangDeadline(w, scale))
	if err != nil {
		res.addCheck("traced_rep", false, "%v", err)
		return err
	}
	tr, err := spawnRep(repSpec{Workload: w.Name, Seed: res.Seed, Scale: scale, Workers: 1,
		Traced: true, Profile: prof}, hangDeadline(w, scale))
	if err != nil {
		res.addCheck("traced_rep", false, "%v", err)
		return err
	}
	res.addCheck("traced_rep", twin.clean() && tr.clean() && twin.SimHash == tr.SimHash,
		"%d× window: %d of %d ops failed traced, %d of %d untraced", tracedScale, tr.Failed, tr.Attempted, twin.Failed, twin.Attempted)
	pl := map[string]float64{}
	shares, samples, err := cpuShares(prof)
	if err != nil {
		res.addCheck("cpu_profile", false, "%v", err)
		return err
	}
	for k, v := range shares {
		pl[k] = v
	}
	pl["cpu_share.samples"] = samples
	for k, v := range probeVals {
		pl[k] = v
	}
	for k, v := range res.Counts {
		pl[k] = v
	}
	byName := map[string]float64{}
	for _, s := range tr.Spans {
		byName[s.Name] += s.DurS
	}
	for _, n := range spanNames {
		pl["span."+n+"_s"] = byName[n] * tr.HostSpeed // reference seconds
	}
	// Tracing overhead: run time of the traced rep against its twin.
	if twin.RunS > 0 {
		pl["span.trace_overhead_pct"] = (tr.RunS - twin.RunS) / twin.RunS * 100
	}
	pl["span.sim.group.par2_speedup"] = 0
	if w2.RunS > 0 {
		pl["span.sim.group.par2_speedup"] = res.RunS.Median / w2.RunS
	}
	pl["span.sim.group.colocated_ratio"] = 0
	if w.Colocated {
		co, err := spawnRep(repSpec{Workload: w.Name, Seed: res.Seed, Scale: res.Scale, Workers: 1,
			Colocate: true}, hangDeadline(w, res.Scale))
		if err != nil {
			res.addCheck("colocated_rep", false, "%v", err)
			return err
		}
		res.addCheck("colocated_rep", co.clean(), "%d of %d ops failed on one shared engine", co.Failed, co.Attempted)
		if co.RunS > 0 {
			pl["span.sim.group.colocated_ratio"] = res.RunS.Median / co.RunS
		}
	}
	res.PerLayer = pl
	res.Spans = tr.Spans
	return nil
}

// spanNames is the span.<x>_s family: wall spans around the benchmark's
// own calls into the simulator, read from the traced rep.
var spanNames = []string{
	"setup.new_cluster", "setup.add_server", "setup.add_clients", "setup.rules",
	"run.warmup", "run.window", "run.drain", "run.quiesce", "snapshot",
	"gen.on_send", "gen.on_receive",
}

// perLayerDefs lists every per-layer metric a traced pass emits, with
// unit and direction, in report order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{Name: "cpu_share." + l, Unit: "%", Better: "lower"})
	}
	defs = append(defs, metricDef{Name: "cpu_share.samples", Unit: "count", Better: "higher"})
	for _, p := range probes {
		defs = append(defs, metricDef{Name: p.Name + "_ns", Unit: "ns", Better: "lower"})
		if p.Allocs {
			defs = append(defs, metricDef{Name: p.Name + "_allocs", Unit: "count", Better: "lower"})
		}
	}
	for _, n := range countNames {
		better := "lower"
		if n == "count.sim.group.merged_per_round" {
			better = "higher"
		}
		defs = append(defs, metricDef{Name: n, Unit: "count", Better: better})
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{Name: "span." + n + "_s", Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "span.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "span.sim.group.par2_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "span.sim.group.colocated_ratio", Unit: "ratio", Better: "lower"})
	return defs
}
