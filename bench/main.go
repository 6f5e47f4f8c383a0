// Command bench is the simulator's benchmark: five named workloads built
// through the public facade, seven gated end-to-end metrics on each, and
// a traced pass that attributes host cost to layers (CPU-profile shares,
// stand-alone probes, the exact PCIe/NIC/scheduler ledger, and spans
// around the benchmark's own calls). README.md in this directory is the
// glossary and the claim surface for later issues.
//
//	go run ./bench -seed 1 -out result.json      full suite + traced pass
//	go run ./bench -compare a.json b.json        two result files, metric by metric
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                             one workload, one JSON line (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var spec repSpec
	child := flag.Bool("child", false, "internal: run one rep in this process and print it as JSON")
	flag.StringVar(&spec.Workload, "workload", "", "run only this workload and print one JSON result line")
	flag.Int64Var(&spec.Seed, "seed", 1, "workload seed: every generated stream derives from it")
	flag.Float64Var(&spec.Scale, "scale", 1, "internal: simulated-window multiplier (1 = the published size; the tier-1 test runs a tiny one)")
	flag.IntVar(&spec.Workers, "workers", 1, "internal: cluster scheduler workers of a child rep")
	flag.BoolVar(&spec.Colocate, "colocate", false, "internal: child rep on one shared engine")
	flag.BoolVar(&spec.Traced, "traced", false, "internal: child rep with generator spans on")
	flag.StringVar(&spec.Profile, "cpuprofile", "", "internal: child rep writes a CPU profile here")
	seconds := flag.Int("seconds", 15, "with -workload: how long the timed reps measure")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ones")
	out := flag.String("out", "", "full suite: also write the result file here")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.StringVar(&scratchDir, "scratch", scratchDir, "where the traced pass keeps its CPU profiles while it runs")
	flag.Parse()

	switch {
	case *child:
		os.Exit(childMain(spec))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1)))
	case spec.Workload != "":
		os.Exit(oneWorkload(spec.Workload, spec.Seed, spec.Scale, time.Duration(*seconds)*time.Second, *trace == 1))
	default:
		os.Exit(fullSuite(spec.Seed, spec.Scale, *out))
	}
}

// probeScale keeps the probes at their published iteration counts
// unless the whole run is scaled down (the tier-1 test).
func probeScale(scale float64) float64 {
	if scale < 1 {
		return scale
	}
	return 1
}

// contractResult is the one JSON line BENCHMARK.json's command prints.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// oneWorkload measures a single workload for about `budget` and prints
// the contract line: end-to-end medians untraced, or the per-layer
// families from a traced pass.
func oneWorkload(name string, seed int64, scale float64, budget time.Duration, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	reps := 0
	if traced || budget == 0 {
		// The traced pass needs only enough untraced reps to anchor the
		// ledger and the speedup ratios.
		reps, budget = 3, 0
	}
	got, err := collect([]*workload{w}, seed, scale, reps, budget)
	res := fold(w, seed, scale, got[w.Name])
	if err == nil {
		var w2 repResult
		if w2, err = checkWorkers2(w, &res); err == nil && traced {
			err = tracedPass(w, &res, w2, runProbes(probeScale(scale)))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check %s %s\n", name, c.Name, c.Detail)
		}
	}
	line := contractResult{Correct: err == nil && res.ok(), Attempted: max(res.Attempted, 1),
		Failed: res.Failed, Metrics: map[string]contractMetric{}}
	if traced {
		for _, d := range perLayerDefs() {
			line.Metrics[d.Name] = contractMetric{Value: res.PerLayer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range e2eDefs {
			line.Metrics[d.Name] = contractMetric{Value: res.E2E[d.Name].Median, Unit: d.Unit}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !line.Correct {
		return 1
	}
	return 0
}
