package exps

import (
	"fmt"

	"flexdriver/internal/scenario"
)

// Scenario drives the randomized scenario fuzzer (internal/scenario) as
// a reportable experiment. Two modes:
//
//   - sweep (spec == ""): run `count` (at least one) generated scenarios
//     starting at `seed`, each to quiescence and twice (the
//     replay-determinism invariant compares the two telemetry hashes).
//     This is the CI smoke: `fldreport -exp scenario -seed 1 -count 300`.
//   - replay (spec != ""): parse and run that exact spec — the path the
//     shrinker's one-line repro command takes, so a shrunk violation
//     reproduces outside the test harness.
//
// The first violated scenario is shrunk to a minimal reproducing spec
// and its repro command is printed in the report; the experiment's
// checks fail if any scenario violated an invariant.
func Scenario(seed int64, count int, spec string) *Result {
	if spec != "" {
		s, err := scenario.Parse(spec)
		return judge("scenario", fmt.Sprintf("scenario replay (spec=%q)", spec), err, s)
	}
	var specs []scenario.Spec
	for i := int64(0); i < int64(count); i++ {
		specs = append(specs, scenario.Generate(seed+i))
	}
	return judge("scenario", fmt.Sprintf("randomized scenario sweep (seeds %d..%d)", seed, seed+int64(count)-1), nil, specs...)
}

// judge checks every spec, tabulates the outcome and shrinks the first
// violation; err is a spec that did not parse, reported as a failed
// check. A run of one spec (replay mode, the chaos experiment) also
// tabulates its injections per fault class and its closed
// supervision-ladder episodes.
func judge(id, title string, err error, specs ...scenario.Spec) *Result {
	r := &Result{ID: id, Title: title}
	if err != nil {
		r.Check("spec parses", 1, 0, "", false, err.Error())
		return r
	}
	r.Columns = []string{"seed", "sent", "lost", "dups", "faults-injected", "verdict"}
	var violated []*scenario.Result
	var last *scenario.Result
	var sent, lost, dups, injected int64
	for _, s := range specs {
		res := scenario.Check(s)
		last = res
		sent += res.Sent
		lost += res.Lost
		dups += res.Dups
		injected += res.Injected.Total()
		if len(res.Violations) > 0 {
			violated = append(violated, res)
			r.AddRow(fmt.Sprintf("%d", s.Seed), d64(res.Sent), d64(res.Lost),
				d64(res.Dups), d64(res.Injected.Total()),
				"VIOLATED "+res.Violations[0].Invariant)
		}
	}
	r.AddRow("(all)", d64(sent), d64(lost), d64(dups), d64(injected),
		fmt.Sprintf("%d/%d clean", len(specs)-len(violated), len(specs)))
	if len(specs) == 1 {
		i := last.Injected
		r.AddRow("pcie drop/corrupt/flap", "", "", "", fmt.Sprintf("%d/%d/%d", i.PCIeDrops, i.PCIeCorrupts, i.LinkFlapTLPs), "")
		r.AddRow("nic db/wqe/cqe", "", "", "", fmt.Sprintf("%d/%d/%d", i.DoorbellLosses, i.WQEFetchFails, i.CQEErrors), "")
		r.AddRow("accel stalls", "", "", "", d64(i.AccelStalls), "")
		r.AddRow("wire loss/dup/delay/dropn/part", "", "", "", fmt.Sprintf("%d/%d/%d/%d/%d",
			i.WireLosses, i.WireDups, i.WireDelays, i.WireDropped, i.PartitionDrops), "")
		r.AddRow("crash fld/flr/node/drv/sw", "", "", "", fmt.Sprintf("%d/%d/%d/%d/%d",
			i.FLDResets, i.NICFLRs, i.NodeCrashes, i.DrvCrashes, i.SwReboots), "")
		r.AddRow("supervisor", "", "", "", "", fmt.Sprintf("closed episodes: %d", last.SupEpisodes))
	}

	// Shrink the first violation to its minimal repro and surface the
	// one-liner; the remaining violations replay individually via -spec.
	if len(violated) > 0 {
		first := violated[0]
		min, runs := scenario.Shrink(first.Spec, first.Violations[0].Invariant)
		r.AddRow("", "", "", "", "", "")
		r.AddRow("shrunk", fmt.Sprintf("%d runs", runs), "", "", "", min.String())
		r.AddRow("repro", "", "", "", "", min.ReproCommand())
		for _, v := range first.Violations {
			r.AddRow("violation", "", "", "", "", v.String())
		}
	}

	r.Check("every scenario holds all global invariants", 0, float64(len(violated)),
		"violating scenarios", len(violated) == 0,
		"frame conservation, CQE<->WQE, pool balance, quiescence, replay determinism")
	r.Check("sweep exercised traffic", 1, b2f(sent > 0), "", sent > 0, "")
	return r
}
