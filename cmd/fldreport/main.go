// Command fldreport runs every reproduced experiment — all tables and
// figures of the FlexDriver paper's evaluation — and prints a
// paper-vs-measured report. EXPERIMENTS.md is generated from this output.
//
// Usage:
//
//	fldreport                  # run everything
//	fldreport -exp fig7b       # run one experiment
//	fldreport -quick           # shorter measurement windows
//	fldreport -trace out.json  # telemetry run: dump the counter snapshot
//	                           # and write the TLP flight recorder as
//	                           # Chrome trace_event JSON (load the file in
//	                           # chrome://tracing or Perfetto)
//	fldreport -exp chaos -seed 7 -faults heavy
//	                           # replay one deterministic fault storm
//	fldreport -exp scenario -seed 1 -count 300
//	                           # sweep 200 generated scenarios (CI smoke)
//	fldreport -exp scenario -seed 42 -spec "seed=42 clients=1 ..."
//	                           # replay one exact (possibly shrunk) scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flexdriver"
	"flexdriver/internal/exps"
)

// parseClients turns "1,2,4,8" into client counts for -exp cluster.
func parseClients(spec string) ([]int, error) {
	var ns []int
	for _, s := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q", s)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func main() {
	exp := flag.String("exp", "", "run a single experiment (see -list for the full set)")
	list := flag.Bool("list", false, "list every experiment with the flags it honors, then exit")
	quick := flag.Bool("quick", false, "shorter measurement windows")
	seed := flag.Int64("seed", 1, "random seed for the chaos experiment's fault plan and the scenario sweep's first seed; a failing seed replays the identical run")
	faults := flag.String("faults", "", `fault spec for the chaos experiment: a preset ("light", "heavy", "crash") or key=value pairs, e.g. "heavy" or "light,wire.loss=0.1" (default "heavy")`)
	count := flag.Int("count", 25, "how many generated scenarios the scenario sweep runs (seeds seed..seed+count-1)")
	spec := flag.String("spec", "", "exact scenario spec to replay for -exp scenario (the form a shrunk repro command prints); overrides -count")
	clients := flag.String("clients", "1,2,4,8", "client counts the cluster experiment sweeps, comma-separated; with -hosts these are aggregated counts (e.g. -clients 128,512)")
	hosts := flag.Int("hosts", 0, "fold each cluster client count onto this many aggregated-client hosts (0 = one discrete host per client); the hundred-node scaling mode")
	workers := flag.Int("workers", 0, "scheduler workers for the cluster, chaos and failover experiments: 0 = one per CPU, 1 = sequential reference (identical telemetry either way)")
	traceOut := flag.String("trace", "", "run the telemetry experiment, print its counter snapshot, and write the TLP flight recorder as Chrome trace_event JSON to this file")
	flag.Parse()

	window := 800 * flexdriver.Microsecond
	latSamples := 20000
	loadSamples := 4000
	if *quick {
		window = 300 * flexdriver.Microsecond
		latSamples = 4000
		loadSamples = 1500
	}

	sizes := []int{64, 128, 256, 512, 1024}
	fractions := []float64{0.1, 0.3, 0.5, 0.7, 0.82, 0.95, 1.03}

	// The telemetry runner keeps its registry and recorder so -trace can
	// dump the snapshot and export the Chrome trace after the run.
	var telReg *flexdriver.Registry
	var telRec *flexdriver.Recorder
	runTelemetry := func() *exps.Result {
		r, reg, rec := exps.TelemetryWithRegistry(window)
		telReg = reg
		telRec = rec
		return r
	}

	runners := []struct {
		id    string
		about string // one-liner for -list: what it measures + extra flags it honors
		run   func() *exps.Result
	}{
		{"table1", "driver resource footprint vs the paper's Table 1", exps.Table1},
		{"table2", "FLD FPGA area budget vs Table 2", exps.Table2},
		{"table3", "per-queue-type doorbell/CQE costs vs Table 3", exps.Table3},
		{"table4", "PCIe TLP round-trip accounting vs Table 4", exps.Table4},
		{"table5", "ZUC accelerator throughput vs Table 5", exps.Table5},
		{"fig4", "doorbell batching sweep vs Figure 4", exps.Fig4},
		{"fig7a", "single-core packet-rate ceiling vs Figure 7a", exps.Fig7a},
		{"fig7b", "throughput by frame size vs Figure 7b", func() *exps.Result { return exps.Fig7b(sizes, window) }},
		{"fig7c", "latency under load vs Figure 7c", func() *exps.Result { return exps.Fig7c(fractions, loadSamples) }},
		{"table6", "round-trip latency percentiles vs Table 6", func() *exps.Result { return exps.Table6(latSamples) }},
		{"mixed-trace", "mixed ZUC/plain traffic trace replay", func() *exps.Result { return exps.MixedTrace(window) }},
		{"fig8a", "IP-defrag throughput by fragment size vs Figure 8a", func() *exps.Result { return exps.Fig8a([]int{64, 128, 256, 512, 1024, 2048, 4096}, window) }},
		{"fig8b", "IP-defrag throughput by fragmented fraction vs Figure 8b", func() *exps.Result { return exps.Fig8b([]float64{0.1, 0.3, 0.5, 0.7, 0.9}, loadSamples) }},
		{"defrag", "IP defragmentation accelerator end-to-end", func() *exps.Result { return exps.Defrag(window) }},
		{"iot-linerate", "IoT token authentication at line rate", func() *exps.Result { return exps.IotLineRate(window) }},
		{"iot-isolation", "IoT accelerator isolation from host traffic", func() *exps.Result { return exps.IotIsolation(window) }},
		{"iot-security", "invalid IoT tokens dropped in hardware", func() *exps.Result { return exps.IotInvalidTokensDropped(window) }},
		{"ext-virtio", "portability: FLD behind a virtio-style NIC", func() *exps.Result { return exps.Portability(window) }},
		{"telemetry", "telemetry/flight-recorder self-check; honors -trace", runTelemetry},
		{"chaos", "deterministic fault storm; honors -seed -faults -workers", func() *exps.Result { return exps.ChaosWorkers(*seed, *faults, window, *workers) }},
		{"failover", "crash-failover SLOs under supervision; honors -workers", func() *exps.Result { return exps.FailoverWorkers(window, *workers) }},
		{"scenario", "generated-scenario sweep; honors -seed -count -spec", func() *exps.Result { return exps.Scenario(*seed, *count, *spec) }},
		{"tenancy", "multi-tenant live reconcile under traffic; honors -seed", func() *exps.Result { return exps.Tenancy(*seed, window) }},
		{"kvserve", "TCP offload + KV serving under 10^5 connections; honors -seed -workers", func() *exps.Result {
			p := exps.DefaultKVServeParams(window)
			p.Seed = *seed
			if *workers > 0 {
				p.HashWorkers = []int{*workers, 1, 4}
			}
			return exps.KVServe(p)
		}},
		{"cluster", "N-client scaling behind a ToR switch; honors -clients -hosts -workers", func() *exps.Result {
			p := exps.DefaultClusterParams(window)
			ns, err := parseClients(*clients)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fldreport: -clients: %v\n", err)
				os.Exit(2)
			}
			p.Clients = ns
			p.Hosts = *hosts
			p.Workers = *workers
			return exps.Cluster(p)
		}},
	}

	if *list {
		fmt.Println("experiments (run one with -exp <id>; all honor -quick):")
		for _, rn := range runners {
			fmt.Printf("  %-14s %s\n", rn.id, rn.about)
		}
		return
	}

	if *exp != "" {
		known := false
		for _, rn := range runners {
			if rn.id == *exp {
				known = true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "fldreport: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}

	failed := 0
	ran := 0
	for _, rn := range runners {
		if *exp != "" && rn.id != *exp {
			continue
		}
		ran++
		r := rn.run()
		fmt.Println(r.String())
		if !r.Passed() {
			failed++
		}
	}
	if *traceOut != "" {
		if telRec == nil { // the runner loop skipped the telemetry experiment
			r := runTelemetry()
			fmt.Println(r.String())
			if !r.Passed() {
				failed++
			}
		}
		fmt.Println("== telemetry counter snapshot ==")
		fmt.Print(telReg.Snapshot().String())
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fldreport: %v\n", err)
			os.Exit(1)
		}
		if err := telRec.WriteChromeTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fldreport: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d TLP events to %s (open in chrome://tracing or Perfetto)\n",
			telRec.Len(), *traceOut)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fldreport: %d experiment(s) had failing checks\n", failed)
		os.Exit(1)
	}
	fmt.Println("all experiment checks passed")
}
