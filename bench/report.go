package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultFile is what `-out` writes and `-compare` reads.
type resultFile struct {
	Meta struct {
		Seed      int64   `json:"seed"`
		Scale     float64 `json:"scale"`
		Reps      int     `json:"reps"`
		NProc     int     `json:"nproc"`
		GoVersion string  `json:"go_version"`
		Commit    string  `json:"commit"`
		WallS     float64 `json:"wall_s"`
	} `json:"meta"`
	Workloads []wlResult         `json:"workloads"`
	Probes    map[string]float64 `json:"probes,omitempty"`
	OK        bool               `json:"ok"`
}

// commitID asks git for HEAD; the benchmark also runs from plain source
// checkouts, where the answer is "unknown".
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// suiteReps is R: timed reps per workload in the full suite. Result files
// are comparable because it is fixed.
const suiteReps = 9

// fullSuite is `go run ./bench -seed N`: suiteReps interleaved reps of
// every workload, the Workers=2 hash check, the traced pass, every
// output check; prints every metric by name and unit and exits non-zero
// on any failed check or hang.
func fullSuite(seed int64, scale float64, outPath string) int {
	start := time.Now()
	var rf resultFile
	rf.Meta.Seed, rf.Meta.Scale, rf.Meta.Reps = seed, scale, suiteReps
	rf.Meta.NProc, rf.Meta.GoVersion, rf.Meta.Commit = runtime.NumCPU(), runtime.Version(), commitID()

	ws := make([]*workload, len(workloads))
	for i := range workloads {
		ws[i] = &workloads[i]
	}
	fmt.Printf("bench: seed %d, %d reps × %d workloads, nproc %d, %s, commit %s\n",
		seed, suiteReps, len(ws), rf.Meta.NProc, rf.Meta.GoVersion, rf.Meta.Commit)
	got, err := collect(ws, seed, scale, suiteReps, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	} else {
		rf.Probes = runProbes(probeScale(scale))
	}
	rf.OK = err == nil
	for _, w := range ws {
		res := fold(w, seed, scale, got[w.Name])
		if err == nil {
			w2, werr := checkWorkers2(w, &res)
			if werr == nil {
				werr = tracedPass(w, &res, w2, rf.Probes)
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "bench:", werr)
				rf.OK = false
			}
		}
		rf.OK = rf.OK && res.ok()
		rf.Workloads = append(rf.Workloads, res)
	}
	rf.Meta.WallS = time.Since(start).Seconds()
	printReport(&rf)
	if outPath != "" {
		b, err := json.MarshalIndent(&rf, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write result:", err)
			return 2
		}
	}
	if !rf.OK {
		fmt.Println("bench: FAILED")
		return 1
	}
	fmt.Printf("bench: all checks passed in %.0f s\n", rf.Meta.WallS)
	return 0
}

// printReport prints every metric by name with its unit.
func printReport(rf *resultFile) {
	fmt.Println("\n== end-to-end (median [q1 .. q3] n; bound = allowed worsening vs baseline) ==")
	for _, w := range rf.Workloads {
		fmt.Printf("%s  sim_hash %.16s  ops/rep %d\n", w.Name, w.SimHash, w.OpsPerRep)
		for _, d := range e2eDefs {
			s := w.E2E[d.Name]
			fmt.Printf("  %-24s %14.6g %-5s [%.6g .. %.6g] n=%d  spread %.1f%%  bound %.1f%% (%s is better)\n",
				d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, 100*s.spread(), 100*d.Bound, d.Better)
		}
		if w.RunWallS.Median > 0 {
			fmt.Printf("  %-24s %14.6g %-5s (as the wall clock read it, host_speed %.2f; not gated)\n",
				"host_ops_per_wall_s", float64(w.OpsPerRep)/w.RunWallS.Median, "1/s", w.HostSpeed.Median)
		}
		fmt.Printf("  %-24s %14.6g %-5s (deterministic; gated through model_agree_pct)\n", "model_err_pct", w.ModelErrPct, "%")
		fmt.Printf("  %-24s %14.6g %-5s ops_attempted %d ops_failed %d (exact)\n", "fail_share", w.FailShare, "ratio", w.Attempted, w.Failed)
		for _, k := range sortedKeys(w.Model) {
			fmt.Printf("  %-24s %14.6g (sim time, not gated)\n", k, w.Model[k])
		}
		for _, c := range w.Checks {
			mark := "ok  "
			if !c.OK {
				mark = "FAIL"
			}
			fmt.Printf("  check %s %-26s %s\n", mark, c.Name, c.Detail)
		}
	}
	if rf.Probes == nil {
		return // the run stopped before the traced pass
	}
	fmt.Println("\n== per-layer (traced pass) ==")
	fmt.Printf("%-40s %-6s", "metric", "unit")
	for _, w := range rf.Workloads {
		fmt.Printf(" %16.16s", w.Name)
	}
	fmt.Println()
	for _, d := range perLayerDefs() {
		if strings.HasPrefix(d.Name, "probe.") {
			continue // workload-independent, printed once below
		}
		fmt.Printf("%-40s %-6s", d.Name, d.Unit)
		for _, w := range rf.Workloads {
			fmt.Printf(" %16.6g", w.PerLayer[d.Name])
		}
		fmt.Println()
	}
	fmt.Println("\n== probes (median of 5, one layer in isolation, reference ns) ==")
	for _, n := range probeNames() {
		unit := "ns"
		if strings.HasSuffix(n, "_allocs") {
			unit = "count"
		}
		fmt.Printf("%-44s %14.6g %s\n", n, rf.Probes[n], unit)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict compares one end-to-end metric between a baseline a and a
// candidate b: "ok" when the medians differ by less than the metric's
// absolute floor; "worse" when b's median is beyond the bound;
// "unresolved" when it is not, but either side's spread is wider than
// the bound and the two sets of runs overlap, so the bound cannot be
// resolved; "ok" otherwise.
func verdict(d metricDef, a, b summary) (delta float64, v string) {
	if a.Median == 0 {
		return 0, "ok"
	}
	delta = (b.Median - a.Median) / a.Median
	if math.Abs(b.Median-a.Median) < d.Floor {
		return delta, "ok"
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	if worse > d.Bound {
		return delta, "worse"
	}
	if (a.spread() > d.Bound || b.spread() > d.Bound) && overlap(a.Values, b.Values) {
		return delta, "unresolved"
	}
	return delta, "ok"
}

// overlap reports whether two samples' ranges intersect.
func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return minA <= maxB && minB <= maxA
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// compareMain is `-compare a.json b.json`: per workload × end-to-end
// metric both medians, quartiles, delta, bound and a verdict; then every
// deterministic number (fail_share, model_err_pct, count.*, model.*,
// sim_hash) compared exactly. Exit 1 if anything is worse, unresolved or
// differs.
func compareMain(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("a: %s seed %d commit %s %s nproc %d\nb: %s seed %d commit %s %s nproc %d\n",
		pathA, a.Meta.Seed, a.Meta.Commit, a.Meta.GoVersion, a.Meta.NProc,
		pathB, b.Meta.Seed, b.Meta.Commit, b.Meta.GoVersion, b.Meta.NProc)
	bad, diffs := 0, 0
	byName := map[string]*wlResult{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		delete(byName, wa.Name)
		if wb == nil {
			fmt.Printf("%s: missing from b\n", wa.Name)
			bad++
			continue
		}
		fmt.Printf("\n%s\n  %-24s %13s [%11s .. %11s] %13s [%11s .. %11s] %8s %6s  verdict\n", wa.Name,
			"metric", "a median", "q1", "q3", "b median", "q1", "q3", "delta", "bound")
		for _, d := range e2eDefs {
			sa, sb := wa.E2E[d.Name], wb.E2E[d.Name]
			delta, v := verdict(d, sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Printf("  %-24s %13.6g [%11.6g .. %11.6g] %13.6g [%11.6g .. %11.6g] %+7.2f%% %5.1f%%  %s\n",
				d.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*delta, 100*d.Bound, v)
		}
		exact := func(name string, va, vb any) {
			if va != vb {
				diffs++
				fmt.Printf("  differs: %-36s a=%v b=%v\n", name, va, vb)
			}
		}
		exact("sim_hash", wa.SimHash, wb.SimHash)
		exact("fail_share", wa.FailShare, wb.FailShare)
		exact("model_err_pct", wa.ModelErrPct, wb.ModelErrPct)
		for _, pair := range []struct{ ma, mb map[string]float64 }{{wa.Counts, wb.Counts}, {wa.Model, wb.Model}} {
			for _, k := range sortedKeys(pair.ma) {
				vb, ok := pair.mb[k]
				if !ok {
					exact(k, pair.ma[k], "absent")
					continue
				}
				exact(k, pair.ma[k], vb)
			}
			for _, k := range sortedKeys(pair.mb) {
				if _, ok := pair.ma[k]; !ok {
					exact(k, "absent", pair.mb[k])
				}
			}
		}
	}
	for _, w := range b.Workloads {
		if byName[w.Name] != nil {
			fmt.Printf("%s: missing from a\n", w.Name)
			bad++
		}
	}
	fmt.Printf("\n%d end-to-end pairings worse or unresolved, %d deterministic values differ\n", bad, diffs)
	if bad+diffs > 0 {
		return 1
	}
	return 0
}
