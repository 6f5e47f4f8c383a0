package main

import (
	"crypto/sha256"
	"encoding/hex"

	"flexdriver/internal/scenario"
	"flexdriver/internal/sim"
)

// sweepBand is the CI-swept generator band: seeds 1..200 are known
// clean (0 violations, all quiesce). Seeds beyond it are not — see
// "Known exclusions" in the README — so the workload seed permutes the
// band rather than moving it: every seed runs the same scenarios in
// another order. A seed-dependent subset would move the per-op metrics
// between seeds by more than their bounds (a scenario allocates anything
// from 2.6 k to 181 k objects).
const sweepBand = 200

// runScenarioSweep is scenario_sweep: scenario.Run(Generate(s)) for a
// seeded permutation of the band. Each scenario builds, runs and tears
// down its own topology, so construction is run time here by design;
// set-up is only generating the specs.
func runScenarioSweep(cfg runConfig, m *meter) outcome {
	n := int(sweepBand * cfg.Scale) // beyond one pass the permutation repeats
	if n < 4 {
		n = 4
	}
	order := sim.NewRand(cfg.Seed ^ 0x73776565).Perm(sweepBand)
	specs := make([]scenario.Spec, n)
	for i := range specs {
		specs[i] = scenario.Generate(int64(order[i%sweepBand] + 1))
		specs[i].Workers = cfg.Workers
	}

	if !m.ready() {
		return outcome{}
	}
	m.begin("run.window")
	var o outcome
	h := sha256.New()
	var frames, lost, injected, episodes, tailDrops int64
	firstBad := ""
	for _, s := range specs {
		res := scenario.Run(s)
		o.Attempted++
		if len(res.Violations) > 0 {
			o.Failed++
			if firstBad == "" {
				firstBad = res.Violations[0].String() + " — " + s.ReproCommand()
			}
		}
		h.Write([]byte(res.Hash))
		frames += res.Sent
		lost += res.Lost
		injected += res.Injected.Total()
		episodes += res.SupEpisodes
		tailDrops += res.TailDrops
		m.tick(len(specs))
	}
	m.end()
	m.stop()

	o.Ops = o.Attempted - o.Failed
	o.SimHash = hex.EncodeToString(h.Sum(nil))
	o.check("scenario_invariants", o.Failed == 0, "%d of %d scenarios violated an invariant %s", o.Failed, o.Attempted, firstBad)
	o.check("sweep_sent_traffic", frames > 0, "%d echo frames sent", frames)
	// The topologies live and die inside scenario.Run, so only what its
	// Result exports reaches the ledger; there is no closed form for a
	// fault-injected mix, hence no model error.
	o.Model = map[string]float64{"model.frames": float64(frames), "model.frames_lost": float64(lost)}
	o.Counts = map[string]float64{}
	for _, name := range countNames {
		o.Counts[name] = 0
	}
	o.Counts["count.faults.injected"] = float64(injected)
	o.Counts["count.swdriver.supervisor_episodes"] = float64(episodes)
	o.Counts["count.ethswitch.tail_drops"] = float64(tailDrops)
	return o
}
