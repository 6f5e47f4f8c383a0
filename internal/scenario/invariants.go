package scenario

import (
	"strings"

	"flexdriver"
	"flexdriver/internal/pcie"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
)

// nicLaw names the counters the CQE/WQE law reads, per NIC: executed send
// WQEs, placed receive packets, written CQEs. VF-owned queues instrument
// under <node>/nic/vf<ID>/{sq,rq,cq}<ID>/ rather than the PF's flat
// paths, so each sum takes both scopes; the law itself is VF-blind.
var nicLaw = [3]struct{ scope, suffix string }{
	{"sq", "/wqe_executed"}, {"rq", "/packets"}, {"cq", "/cqes"},
}

// nicQueueSums folds every node's nicLaw sums in one pass over the
// counters, where a Snapshot.Sum per node and term rescans the tree.
func nicQueueSums(snap flexdriver.Snapshot) map[string][3]int64 {
	sums := map[string][3]int64{}
	for p, v := range snap.Counters {
		name, rest, _ := strings.Cut(p, "/nic/") // no "/nic/": rest is empty
		for i, l := range nicLaw {
			if strings.HasSuffix(rest, l.suffix) && (strings.HasPrefix(rest, l.scope) || strings.HasPrefix(rest, "vf")) {
				s := sums[name]
				s[i] += v
				sums[name] = s
			}
		}
	}
	return sums
}

// checkCluster judges the invariants that hold for the cluster as a
// whole, whatever parts the scenario is made of. Every check is phrased
// as a conservation or reconciliation law, so a violation means real
// state went missing or was manufactured — not that a tuning threshold
// was missed. What only one part can state (its queues are Ready, its
// transport delivered intact) lives in that part's check.
func checkCluster(rn *run, j *judgement) {
	res, snap, bad := j.res, j.snap, j.bad
	inj := res.Injected
	crashes := inj.FLDResets + inj.NICFLRs + inj.NodeCrashes + inj.DrvCrashes + inj.SwReboots

	var nicDrops int64
	sums := nicQueueSums(snap)
	rn.EachNode(func(name string, n *flexdriver.NIC, _ *pcie.Fabric) {
		for _, v := range n.Stats.Drops {
			nicDrops += v
		}

		// CQE/WQE matching, from the telemetry tree alone: every
		// completion the NIC wrote corresponds to an executed send WQE, a
		// placed receive packet, or an error-state announcement — and
		// every placed packet announces a completion. More CQEs than
		// causes means completions were manufactured; fewer than
		// placements means one went missing — excusable only by an
		// injected fault (a dropped PCIe TLP can kill the completion write
		// after the payload already landed), so the receive-side bound is
		// exact on a fault-free run.
		executed, placed, cqes := sums[name][0], sums[name][1], sums[name][2]
		errs := n.Stats.QueueErrors
		if cqes > executed+placed+errs {
			bad("cqe-wqe", "%s: %d CQEs exceed %d executed WQEs + %d placed packets + %d errors",
				name, cqes, executed, placed, errs)
		}
		if placed > cqes+inj.Total() {
			bad("cqe-wqe", "%s: %d placed packets but only %d CQEs announced (%d faults injected)",
				name, placed, cqes, inj.Total())
		}

		// Recovery: every queue error was answered by a driver reset. The
		// pairing holds exactly only without crash classes: a crash window
		// fails every ring at once and recovery then proceeds wholesale
		// (FLR, reattach) rather than per-error, so the per-queue ledger
		// legitimately diverges. The parts' Ready-state checks are the
		// crash-safe form of the same claim.
		if crashes == 0 && errs > n.Stats.QueueRecoveries {
			bad("queues-recovered", "%s: %d queue errors vs %d recoveries", name, errs, n.Stats.QueueRecoveries)
		}
	})

	// Frame conservation: every sent frame is delivered, or its loss is
	// recorded somewhere with a reason — an injected fault (each worth at
	// most one flushed 512-entry ring of collateral), a switch tail drop,
	// a NIC drop counter, or a loss a part excused in gather (echo-side
	// send failures, kv rejections, truncated replies). A fault-free,
	// uncongested scenario therefore has a budget of zero: any loss at
	// all is a ghost drop. (The PlantLossNth hook manufactures exactly
	// such a drop, and this is the invariant that must catch it.)
	budget := 512*inj.Total() + res.TailDrops + nicDrops + rn.Switch().Stats.Malformed + j.lossBudget
	if res.Lost > budget {
		bad("frame-conservation",
			"%d of %d frames lost but only %d accounted for (injected=%d tail=%d nic=%d parts=%v)",
			res.Lost, res.Sent, budget, inj.Total(), res.TailDrops, nicDrops, j.excuses)
	}

	// No duplication beyond the plan's injected wire duplicates — plus
	// the at-least-once replay of crash recovery: a NIC FLR, node crash
	// or FLD reset makes the driver replay its unacknowledged send window
	// (up to one 512-entry ring per episode), so frames already delivered
	// before the crash legitimately arrive twice. Driver-process crashes
	// drop their window instead of replaying it and earn no allowance.
	maxDups := inj.WireDups + 512*(inj.NICFLRs+inj.NodeCrashes+inj.FLDResets) + j.dupBudget
	if res.Dups > maxDups {
		bad("duplication", "%d duplicate deliveries vs %d allowed (%d injected wire dups)",
			res.Dups, maxDups, inj.WireDups)
	}

	// Buffer-pool balance: the engine's pool must have every buffer
	// returned once the run quiesces (free-on-delivery ownership).
	var out int64
	for _, eng := range rn.Engines() {
		out += eng.Bufs().Outstanding()
	}
	if out != 0 {
		bad("bufpool-leak", "%d pool buffers still outstanding after quiescence", out)
	}

	// Cluster quiescence: no wedged retry or recovery loop keeps
	// scheduling events after traffic stops, on any node or in flight
	// between nodes.
	if n := rn.Pending(); n != 0 {
		bad("quiesce", "%d events still pending after drain", n)
	}

	// Supervision ladder: recovery must always converge — an abandoned
	// episode means the ladder ran out its whole attempt budget without
	// healing — and when episodes closed, the worst MTTR is bounded by
	// the longest injected outage plus deterministic ladder overhead
	// (watchdog cadence, backoff, drain). Unbounded MTTR is exactly the
	// wedged-recovery failure mode this layer exists to rule out.
	for _, h := range rn.Hosts {
		base := h.Name() + "/supervisor/"
		res.SupEpisodes += snap.Get(base + "episodes")
		if n := snap.Get(base + "abandoned"); n > 0 {
			bad("mttr-bounded", "%s: %d recovery episodes abandoned", h.Name(), n)
		}
		if rn.plan == nil || snap.Get(base+"episodes") == 0 {
			continue
		}
		bound := int64(3*rig.MaxCrashFor(rn.plan.Cfg) + 100*sim.Microsecond)
		if hi := snap.Gauges[base+"mttr_max"].High; hi > bound {
			bad("mttr-bounded", "%s: worst MTTR %dns exceeds bound %dns",
				h.Name(), hi/1000, bound/1000)
		}
	}
}
