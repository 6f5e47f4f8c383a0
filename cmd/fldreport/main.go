// Command fldreport runs every reproduced experiment — all tables and
// figures of the FlexDriver paper's evaluation — and prints a
// paper-vs-measured report. EXPERIMENTS.md is generated from this output.
//
// Usage:
//
//	fldreport                  # run everything
//	fldreport -exp fig7b       # run one experiment
//	fldreport -exp fig7b -sizes 512,1500
//	                           # echo bandwidth at chosen frame sizes
//	fldreport -exp table6 -samples 50000
//	                           # latency percentiles from more samples
//	fldreport -csv fig4        # the analytic model's sweep as CSV (fig4,
//	                           # fig7a); pipe into a plotting tool
//	fldreport -quick           # shorter measurement windows
//	fldreport -trace out.json  # telemetry run: dump the counter snapshot
//	                           # and write the TLP flight recorder as
//	                           # Chrome trace_event JSON (load the file in
//	                           # chrome://tracing or Perfetto)
//	fldreport -exp chaos -seed 7 -faults heavy
//	                           # replay one deterministic fault storm: a
//	                           # named scenario, so a violation prints its
//	                           # shrunk -exp scenario repro line
//	fldreport -exp scenario -seed 1 -count 300
//	                           # sweep 300 generated scenarios (CI smoke)
//	fldreport -exp scenario -seed 42 -spec "seed=42 clients=1 ..."
//	                           # replay one exact (possibly shrunk) scenario
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"flexdriver"
	"flexdriver/internal/exps"
	"flexdriver/internal/memmodel"
	"flexdriver/internal/perfmodel"
)

// parseInts turns "1,2,4,8" into positive counts (-clients, -sizes).
func parseInts(spec string) ([]int, error) {
	var ns []int
	for _, s := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", s)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

// writeCSV prints one of the paper's analytic models as a CSV sweep: the
// driver-memory scalability analysis (fig4) or the PCIe-vs-Ethernet
// performance model (fig7a).
func writeCSV(out io.Writer, fig string) error {
	switch fig {
	case "fig4":
		fmt.Fprintln(out, "gbps,queues,software_bytes,fld_bytes,xcku15p_bytes")
		pts := memmodel.ScalabilitySweep(
			[]float64{25, 50, 100, 150, 200, 300, 400},
			[]int{64, 128, 256, 512, 1024, 2048})
		for _, p := range pts {
			fmt.Fprintf(out, "%.0f,%d,%d,%d,%d\n",
				p.BandwidthGbps, p.TxQueues, p.SoftwareBytes, p.FLDBytes, memmodel.XCKU15PBytes)
		}
	case "fig7a":
		fmt.Fprintln(out, "config_gbps,size,ethernet_gbps,fld_gbps,fraction")
		sizes := []int{64, 96, 128, 192, 256, 384, 512, 768, 1024, 1500, 2048, 4096}
		for _, rate := range []float64{25, 50, 100} {
			m := perfmodel.DefaultEchoModel(rate)
			for _, p := range m.Sweep(sizes) {
				fmt.Fprintf(out, "%.0f,%d,%.3f,%.3f,%.4f\n",
					rate, p.Size, p.EthernetGbps, p.FLDGbps, p.FractionOfEthNet)
			}
		}
	default:
		return fmt.Errorf("unknown figure %q (want fig4 or fig7a)", fig)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, writes the report to out
// (diagnostics go to stderr) and returns the exit status.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("fldreport", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a single experiment (see -list for the full set)")
	list := fs.Bool("list", false, "list every experiment with the flags it honors, then exit")
	quick := fs.Bool("quick", false, "shorter measurement windows")
	sizesSpec := fs.String("sizes", "64,128,256,512,1024", "frame sizes in bytes the fig7b echo-bandwidth experiment sweeps, comma-separated")
	samples := fs.Int("samples", 0, "latency samples for the table6 experiment (0 = 20000, or 4000 with -quick)")
	csv := fs.String("csv", "", "print an analytic model's sweep as CSV instead of running experiments: fig4 or fig7a")
	seed := fs.Int64("seed", 1, "random seed for the chaos experiment's fault plan and the scenario sweep's first seed; a failing seed replays the identical run")
	faults := fs.String("faults", "", `fault spec for the chaos experiment: a preset ("light", "heavy", "crash") or key=value pairs, e.g. "heavy" or "light,wire.loss=0.1" (default "heavy")`)
	count := fs.Int("count", 25, "how many generated scenarios the scenario sweep runs (seeds seed..seed+count-1)")
	spec := fs.String("spec", "", "exact scenario spec to replay for -exp scenario (the form a shrunk repro command prints); overrides -count")
	clients := fs.String("clients", "1,2,4,8", "client counts the cluster experiment sweeps, comma-separated; with -hosts these are aggregated counts (e.g. -clients 128,512)")
	hosts := fs.Int("hosts", 0, "fold each cluster client count onto this many aggregated-client hosts (0 = one discrete host per client); the hundred-node scaling mode")
	traceOut := fs.String("trace", "", "run the telemetry experiment, print its counter snapshot, and write the TLP flight recorder as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(status int, format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "fldreport: "+format+"\n", a...)
		return status
	}
	if *csv != "" {
		if err := writeCSV(out, *csv); err != nil {
			return fail(2, "-csv: %v", err)
		}
		return 0
	}

	window := 800 * flexdriver.Microsecond
	latSamples := 20000
	loadSamples := 4000
	if *quick {
		window = 300 * flexdriver.Microsecond
		latSamples = 4000
		loadSamples = 1500
	}
	if *samples > 0 {
		latSamples = *samples
	}
	sizes, err := parseInts(*sizesSpec)
	if err != nil {
		return fail(2, "-sizes: %v", err)
	}
	clientCounts, err := parseInts(*clients)
	if err != nil {
		return fail(2, "-clients: %v", err)
	}
	switch {
	case *count < 1:
		return fail(2, "-count: %d scenarios, want at least 1", *count)
	case *hosts < 0:
		return fail(2, "-hosts: %d, want 0 (one host per client) or more", *hosts)
	case *samples < 0:
		return fail(2, "-samples: %d, want 0 (the default) or more", *samples)
	}

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
		{"table1", "FPGA networking architectures: published survey plus this FLD vs Table 1", exps.Table1},
		{"table2", "NIC driver memory analysis parameters vs Table 2a", exps.Table2},
		{"table3", "driver memory, software vs FLD, vs Table 3", exps.Table3},
		{"table4", "software components: the paper's LoC vs this repo's analogues (Table 4)", exps.Table4},
		{"table5", "FLD area modeled from its configuration vs Table 5", exps.Table5},
		{"fig4", "driver memory scaling against the XCKU15P budget vs Figure 4", exps.Fig4},
		{"fig7a", "performance model: FLD vs raw Ethernet vs Figure 7a", exps.Fig7a},
		{"fig7b", "throughput by frame size vs Figure 7b; honors -sizes", func() *exps.Result { return exps.Fig7b(sizes, window) }},
		{"fig7c", "latency under load vs Figure 7c", func() *exps.Result { return exps.Fig7c(fractions, loadSamples) }},
		{"table6", "round-trip latency percentiles vs Table 6; honors -samples", func() *exps.Result { return exps.Table6(latSamples) }},
		{"mixed-trace", "IMC-2010 mixed-size forwarding, FLD-E vs one CPU core (§8.1.1)", func() *exps.Result { return exps.MixedTrace(window) }},
		{"fig8a", "disaggregated ZUC throughput by request size vs Figure 8a", func() *exps.Result { return exps.Fig8a([]int{64, 128, 256, 512, 1024, 2048, 4096}, window) }},
		{"fig8b", "ZUC latency under load, 512 B requests, vs Figure 8b", func() *exps.Result { return exps.Fig8b([]float64{0.1, 0.3, 0.5, 0.7, 0.9}, loadSamples) }},
		{"defrag", "IP defragmentation accelerator end-to-end", func() *exps.Result { return exps.Defrag(window) }},
		{"iot-linerate", "IoT token authentication at line rate", func() *exps.Result { return exps.IotLineRate(window) }},
		{"iot-isolation", "IoT offload tenant isolation: Gbps admitted with and without NIC policers", func() *exps.Result { return exps.IotIsolation(window) }},
		{"iot-security", "invalid IoT tokens dropped in hardware", func() *exps.Result { return exps.IotInvalidTokensDropped(window) }},
		{"ext-virtio", "portability: FLD behind a virtio-style NIC", func() *exps.Result { return exps.Portability(window) }},
		{"telemetry", "telemetry/flight-recorder self-check; honors -trace", runTelemetry},
		{"chaos", "deterministic fault storm; honors -seed -faults", func() *exps.Result { return exps.Chaos(*seed, *faults, window) }},
		{"failover", "crash-failover SLOs under supervision", func() *exps.Result { return exps.Failover(window) }},
		{"scenario", "generated-scenario sweep; honors -seed -count -spec", func() *exps.Result { return exps.Scenario(*seed, *count, *spec) }},
		{"tenancy", "multi-tenant live reconcile under traffic; honors -seed", func() *exps.Result { return exps.Tenancy(*seed, window) }},
		{"kvserve", "TCP offload + KV serving under 10^5 connections; honors -seed", func() *exps.Result {
			p := exps.DefaultKVServeParams(window)
			p.Seed = *seed
			return exps.KVServe(p)
		}},
		{"cluster", "N-client scaling behind a ToR switch; honors -clients -hosts", func() *exps.Result {
			p := exps.DefaultClusterParams(window)
			p.Clients = clientCounts
			p.Hosts = *hosts
			return exps.Cluster(p)
		}},
	}

	if *list {
		fmt.Fprintln(out, "experiments (run one with -exp <id>; all honor -quick):")
		for _, rn := range runners {
			fmt.Fprintf(out, "  %-14s %s\n", rn.id, rn.about)
		}
		return 0
	}

	if *exp != "" {
		known := false
		for _, rn := range runners {
			if rn.id == *exp {
				known = true
			}
		}
		if !known {
			return fail(2, "unknown experiment %q", *exp)
		}
	}

	failed := 0
	for _, rn := range runners {
		if *exp != "" && rn.id != *exp {
			continue
		}
		r := rn.run()
		fmt.Fprintln(out, r.String())
		if !r.Passed() {
			failed++
		}
	}
	if *traceOut != "" {
		if telRec == nil { // the runner loop skipped the telemetry experiment
			r := runTelemetry()
			fmt.Fprintln(out, r.String())
			if !r.Passed() {
				failed++
			}
		}
		fmt.Fprintln(out, "== telemetry counter snapshot ==")
		fmt.Fprint(out, telReg.Snapshot().String())
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(1, "%v", err)
		}
		if err = telRec.WriteChromeTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			return fail(1, "writing trace: %v", err)
		}
		fmt.Fprintf(out, "wrote %d TLP events to %s (open in chrome://tracing or Perfetto)\n",
			telRec.Len(), *traceOut)
	}
	if failed > 0 {
		return fail(1, "%d experiment(s) had failing checks", failed)
	}
	fmt.Fprintln(out, "all experiment checks passed")
	return 0
}
