package main

import (
	"fmt"
	"strings"

	"flexdriver"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// runConfig is everything one rep of a workload is allowed to depend on.
type runConfig struct {
	Seed int64
	// Scale multiplies the simulated window (and, for the population
	// workloads, the population): 1 is the published size, the tier-1
	// test uses a tiny one, the traced pass tracedScale.
	Scale float64
	// Workers pins the cluster scheduler (1 = the sequential reference
	// every timing uses; 2 only for the hash-equality check).
	Workers int
	// Colocate racks a cluster on one shared engine (the monolithic
	// baseline behind span.sim.group.colocated_ratio).
	Colocate bool
}

// check is one output check; a failed check makes the command exit
// non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what one rep produced, apart from the host-side timings the
// meter holds. Everything here is a function of (workload, seed, scale)
// only, so two reps at one seed must agree on all of it.
type outcome struct {
	Ops       int64 `json:"ops"`
	Attempted int64 `json:"ops_attempted"`
	Failed    int64 `json:"ops_failed"`
	// SimHash fingerprints the final telemetry tree (for scenario_sweep:
	// the ordered per-scenario hashes).
	SimHash string `json:"sim_hash"`
	// Model holds the raw modelled-hardware numbers in sim time.
	Model map[string]float64 `json:"model"`
	// ModelErrPct is |simulated − closed form| ÷ closed form × 100.
	ModelErrPct float64 `json:"model_err_pct"`
	// Counts is the exact count.* ledger.
	Counts map[string]float64 `json:"counts"`
	Checks []check            `json:"checks"`
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// workload is one named traffic shape. run builds the topology through
// the public facade, calls m.ready() once it can Run, drives it to
// quiescence, calls m.stop(), and returns what it observed.
type workload struct {
	Name string
	Why  string
	// ExpectS is the expected wall time of one full-scale rep on the
	// reference box; the hang guard kills a child at 10× this.
	ExpectS float64
	// SeqOnly exempts the workload from the Workers=2 hash check (README,
	// "Known exclusions").
	SeqOnly bool
	// Colocated adds a rep on one shared engine to the traced pass
	// (span.sim.group.colocated_ratio).
	Colocated bool
	run       func(cfg runConfig, m *meter) outcome
}

// workloads lists the suite in report order. The names are the claim
// surface for later performance and simplicity issues — do not rename.
var workloads = []workload{
	{Name: "echo64_pair", ExpectS: 4, run: runEcho64,
		Why: "smallest frame, one engine, no switch: per-packet cost of sim+pcie+nic+fld+swdriver is everything; bypasses ethswitch, sim.group, tcp/rpc/kv and aggregation"},
	{Name: "cluster16_switch", ExpectS: 4, run: runCluster16, Colocated: true,
		Why: "16 Poisson hosts, ToR switch, 4 FLD cores behind RSS on 18 sharded engines: scheduler rounds, conduit merges, switch queues; bypasses tcp/rpc/kv and aggregation"},
	{Name: "kvserve100k", ExpectS: 6, run: runKVServe,
		Why: "100k flow-level TCP connections on 16 aggregated hosts into 4 kv cores: connection state and set-up cost, allocator and GC share, tcp/rpc/kv parse"},
	{Name: "zuc4k_rdma", ExpectS: 4, run: runZuc4k,
		Why: "4 KiB RDMA requests into the 8-lane ZUC AFU: byte-heavy, cipher and memmove dominate, RC go-back-N fault-free path; event engine is a small share"},
	{Name: "scenario_sweep", ExpectS: 5, run: runScenarioSweep, SeqOnly: true,
		Why: "200 generated scenarios with fault plans, crash ladders, tcp/rpc/rdma sidecars, tenancy: construction, teardown and slow paths of the same layers instead of steady state"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns d × scale, never below floor.
func scaled(d sim.Duration, scale float64, floor sim.Duration) sim.Duration {
	v := sim.Duration(float64(d) * scale)
	if v < floor {
		return floor
	}
	return v
}

// fabNode names one node's PCIe fabric for reconciliation.
type fabNode struct {
	name string
	fab  *pcie.Fabric
}

// settle runs the output checks every topology workload shares and
// fills the hash: byte-exact PCIe reconciliation (telemetry snapshot vs
// the fabric's own port counters) on every node, no pending events, no
// outstanding pooled buffers.
func settle(o *outcome, snap flexdriver.Snapshot, nodes []fabNode, pending int, engines []*flexdriver.Engine) {
	o.SimHash = snap.Hash()
	mism := 0
	for _, n := range nodes {
		for _, p := range n.fab.Ports() {
			dev := p.Device().PCIeName()
			if snap.Get(n.name+"/pcie/"+dev+"/up/bytes") != p.UpBytes ||
				snap.Get(n.name+"/pcie/"+dev+"/down/bytes") != p.DownBytes {
				mism++
			}
		}
	}
	o.check("pcie_reconcile", mism == 0, "%d mismatching link directions over %d nodes", mism, len(nodes))
	o.check("pending_zero", pending == 0, "%d events left at quiescence", pending)
	var out int64
	for _, e := range engines {
		out += e.Bufs().Outstanding()
	}
	o.check("bufpool_balanced", out == 0, "%d pooled buffers outstanding", out)
}

// sumFLD totals a counter over every FLD core of a node: its scopes are
// "fld", "fld1", "fld2", ... (and the same device names under pcie/).
func sumFLD(snap flexdriver.Snapshot, prefix, suffix string) int64 {
	var n int64
	for path, v := range snap.Counters {
		if !strings.HasPrefix(path, prefix) || !strings.HasSuffix(path, suffix) {
			continue
		}
		rest := strings.TrimPrefix(path, prefix)
		scope := rest[:len(rest)-len(suffix)]
		if strings.HasPrefix(scope, "fld") && !strings.Contains(scope, "/") {
			n += v
		}
	}
	return n
}

// ledger fills the count.* family from the telemetry tree and the
// scheduler's own statistics. PCIe and FLD numbers cover the server's
// FLD links — the paper's ledger; NIC and driver numbers the server
// node; drops, switch and fault numbers the whole topology.
func ledger(o *outcome, snap flexdriver.Snapshot, gs sim.GroupStats, server string) {
	ops := float64(o.Ops)
	if ops == 0 {
		ops = 1
	}
	c := map[string]float64{}
	pp := server + "/pcie/"
	tlps := sumFLD(snap, pp, "/up/tlps") + sumFLD(snap, pp, "/down/tlps")
	wire := sumFLD(snap, pp, "/up/bytes") + sumFLD(snap, pp, "/down/bytes")
	data := sumFLD(snap, server+"/", "/rx/bytes") + sumFLD(snap, server+"/", "/tx/bytes")
	c["count.pcie.tlps_per_op"] = float64(tlps) / ops
	c["count.pcie.wire_bytes_per_op"] = float64(wire) / ops
	if wire > 0 {
		c["count.pcie.ctrl_byte_share"] = 1 - float64(data)/float64(wire)
	}
	np := server + "/nic/"
	c["count.nic.doorbells_per_op"] = float64(snap.Sum(np, "/doorbells")+snap.Sum(np, "/wqe_mmio")) / ops
	c["count.nic.wqe_fetch_reads_per_op"] = float64(snap.Sum(np, "/wqe_fetch_reads")) / ops
	c["count.nic.cqes_per_op"] = float64(snap.Sum(np, "/cqes")) / ops
	var drops int64
	for path, v := range snap.Counters {
		if strings.Contains(path, "/nic/drops/") {
			drops += v
		}
	}
	c["count.nic.drops"] = float64(drops)
	hits := sumFLD(snap, server+"/", "/xlt/desc_hits") + sumFLD(snap, server+"/", "/xlt/data_hits")
	miss := sumFLD(snap, server+"/", "/xlt/desc_misses") + sumFLD(snap, server+"/", "/xlt/data_misses")
	if hits+miss > 0 {
		c["count.fld.xlt_miss_ratio"] = float64(miss) / float64(hits+miss)
	}
	c["count.fld.credit_stalls"] = float64(sumFLD(snap, server+"/", "/credit_stalls"))
	c["count.swdriver.cpu_ops_per_op"] = float64(snap.Sum("", "/swdriver/cpu/ops")) / ops
	c["count.ethswitch.tail_drops"] = float64(snap.Sum("switch/", "/tail_drops"))
	c["count.faults.injected"] = float64(snap.Sum("faults/", ""))
	c["count.swdriver.supervisor_episodes"] = float64(snap.Sum("", "/supervisor/episodes"))
	c["count.sim.group.rounds"] = float64(gs.Rounds)
	if gs.Rounds > 0 {
		c["count.sim.group.merged_per_round"] = float64(gs.Merged) / float64(gs.Rounds)
		var active int64
		for _, r := range gs.ShardRounds {
			active += r
		}
		if n := len(gs.ShardRounds); n > 0 {
			c["count.sim.group.active_shard_share"] = float64(active) / float64(gs.Rounds) / float64(n)
		}
	}
	for _, name := range countNames {
		if _, ok := c[name]; !ok {
			c[name] = 0
		}
	}
	o.Counts = c
}

// countNames is the count.* family, in report order.
var countNames = []string{
	"count.pcie.tlps_per_op",
	"count.pcie.wire_bytes_per_op",
	"count.pcie.ctrl_byte_share",
	"count.nic.doorbells_per_op",
	"count.nic.wqe_fetch_reads_per_op",
	"count.nic.cqes_per_op",
	"count.nic.drops",
	"count.fld.xlt_miss_ratio",
	"count.fld.credit_stalls",
	"count.swdriver.cpu_ops_per_op",
	"count.ethswitch.tail_drops",
	"count.sim.group.rounds",
	"count.sim.group.merged_per_round",
	"count.sim.group.active_shard_share",
	"count.faults.injected",
	"count.swdriver.supervisor_episodes",
}

// relErrPct is |got − want| ÷ want × 100.
func relErrPct(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want * 100
}
