package scenario

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/faults"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
)

// Phasing shared by every scenario: clean warmup (queues settle, no
// faults), the spec's measurement window (faults active), clean drain
// (recoveries complete), then run-to-quiescence.
const (
	warmup = 20 * sim.Microsecond
	drain  = 60 * sim.Microsecond
	// watchdogEvery is the cadence an OS driver's health check would run at.
	watchdogEvery = 20 * sim.Microsecond
)

// Violation is one failed global invariant.
type Violation struct {
	Invariant string // stable name the shrinker matches on
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result is one scenario run's outcome: the violations (empty on a clean
// run), the telemetry fingerprint, and the headline counters the report
// and the shrinker's progress lines print.
type Result struct {
	Spec       Spec
	Violations []Violation
	// Snapshot is the final telemetry snapshot, and Hash its SHA-256 —
	// the whole run's deterministic fingerprint.
	Snapshot flexdriver.Snapshot
	Hash     string

	Sent, Lost, Dups        int64
	RDMASent, RDMADelivered int64
	TCPSent, TCPDelivered   int64
	Injected                faults.Counts
	TailDrops               int64
	// SupEpisodes counts closed supervision-ladder recovery episodes
	// across every host driver (from the telemetry tree).
	SupEpisodes int64
}

// Violated reports whether the result carries the named violation.
func (r *Result) Violated(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// part is one self-contained element of a scenario — a server data path,
// the echo clients, a transport sidecar. A part owns its nodes, its load,
// its recovery sweep, its tallies and the invariants only it can judge;
// Run is the fixed skeleton that calls the five stages in order. Adding a
// protocol or a sidecar is a new file implementing part (or, for a client
// framing, a new framing value in server_flat.go), not an edit to Run.
type part interface {
	// build racks the part's nodes and wires its handlers. Parts build in
	// partsFor's order, which fixes switch-port and address
	// assignment.
	build(rn *run)
	// start schedules the part's open-loop load and timed controls.
	start(rn *run)
	// sweep is the part's share of one watchdog pass: kicks of its
	// recovery ladders, which find errors whose announcing CQE was itself
	// lost, and the reconnects that need both ends. It runs inside a
	// cluster Control, so it may touch any node.
	sweep()
	// gather folds the part's tallies into the result and excuses the
	// losses and duplicates it can give a reason for.
	gather(rn *run, j *judgement)
	// check judges the invariants only this part can state.
	check(rn *run, j *judgement)
}

// run is the ground the parts of one scenario share.
type run struct {
	*rig.Rig
	spec Spec
	plan *faults.Plan // nil without a fault spec
	stop sim.Time     // open-loop sources send nothing from here on
	// clients is the echo-client part, which the server parts' reply
	// screens tally into (per client, so no two share a counter).
	clients *echoClients
}

// judgement is what gather fills and check reads: the result, the final
// snapshot, and the conservation budgets.
type judgement struct {
	res  *Result
	snap flexdriver.Snapshot
	// lossBudget and dupBudget are the losses and duplicate deliveries
	// some layer recorded with a reason; excuses itemises the former for
	// the violation message.
	lossBudget, dupBudget int64
	excuses               []excuse
}

type excuse struct {
	reason string
	n      int64
}

func (j *judgement) bad(invariant, format string, args ...any) {
	j.res.Violations = append(j.res.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
}

// excuse adds n reasoned frame losses to the conservation budget.
func (j *judgement) excuse(reason string, n int64) {
	j.lossBudget += n
	j.excuses = append(j.excuses, excuse{reason, n})
}

// partsFor composes the scenario the spec describes: a server data path,
// the echo clients talking to it, and the transport sidecars.
func partsFor(rn *run) []part {
	var srv server = &flatServer{}
	if rn.spec.Tenants > 0 {
		srv = &tenantServer{}
	}
	rn.clients = &echoClients{srv: srv}
	parts := []part{srv, rn.clients}
	if rn.spec.RDMA {
		parts = append(parts, &rdmaSidecar{})
	}
	if rn.spec.Proto != "" {
		parts = append(parts, &tcpSidecar{})
	}
	return parts
}

// Run executes one scenario to quiescence and checks every global
// invariant. The run is a pure function of the Spec: identical specs
// produce identical Results, including the telemetry hash.
func Run(s Spec) *Result {
	res := &Result{Spec: s}
	window := sim.Duration(s.WindowUs) * sim.Microsecond
	var opts []flexdriver.Option
	var plan *faults.Plan
	if s.Faults != "" {
		cfg, err := faults.ParseSpec(s.Faults)
		if err != nil {
			res.Violations = append(res.Violations, Violation{"spec-parse", err.Error()})
			return res
		}
		// Probabilistic faults fire only inside the window; warmup and
		// drain stay clean so every recovery completes before the
		// invariants are judged (the chaos experiment's phasing).
		cfg.Start, cfg.Stop = warmup, warmup+window
		plan = faults.NewPlan(s.Seed, cfg)
		opts = append(opts, flexdriver.WithFaults(plan))
	}
	rn := &run{Rig: rig.New(opts...), spec: s, plan: plan, stop: warmup + window}
	rn.SwitchRate(sim.BitRate(s.RateGbps) * sim.Gbps).SwitchQueueFrames(s.QueueFrames)

	parts := partsFor(rn)
	for _, p := range parts {
		p.build(rn)
	}
	rn.PinFDB()
	for _, p := range parts {
		p.start(rn)
	}
	sweep := func() {
		for _, p := range parts {
			p.sweep()
		}
	}
	deadline := rn.stop + drain
	rn.Supervise(warmup, watchdogEvery, deadline, sweep)
	rn.Quiesce(deadline, sweep)

	res.Snapshot = rn.Telemetry().Snapshot()
	j := &judgement{res: res, snap: res.Snapshot}
	res.Hash = j.snap.Hash()
	if plan != nil {
		res.Injected = plan.Injected
	}
	res.TailDrops = rn.TailDrops()
	for _, p := range parts {
		p.gather(rn, j)
	}
	checkCluster(rn, j)
	for _, p := range parts {
		p.check(rn, j)
	}
	return res
}

// Check runs the scenario twice and adds the replay-determinism
// invariant: both runs must produce byte-identical telemetry. It returns
// the first run's result (augmented with any determinism violation).
func Check(s Spec) *Result {
	r1 := Run(s)
	r2 := Run(s)
	if r1.Hash != r2.Hash {
		r1.Violations = append(r1.Violations, Violation{"replay-determinism",
			fmt.Sprintf("back-to-back runs diverged: %s vs %s", r1.Hash, r2.Hash)})
	}
	return r1
}
