package scenario

import (
	"runtime"
	"testing"

	"flexdriver"
	"flexdriver/internal/pcie"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
)

// TestNICQueueSumsMatchSnapshotSum holds checkCluster's one-pass fold to
// the oracle it replaced — a Snapshot.Sum per node, term and scope — on a
// flat scenario (PF paths only) and a tenancy one (VF-scoped queues).
func TestNICQueueSumsMatchSnapshotSum(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		tenants bool
	}{{1, false}, {5, true}} {
		s := Generate(tc.seed)
		if (s.Tenants > 0) != tc.tenants {
			t.Fatalf("seed %d: tenants=%d, the generator moved; pick another seed", tc.seed, s.Tenants)
		}
		// Run's own build-and-quiesce steps, fault-free, keeping the
		// cluster so the oracle can be asked node by node.
		rn := &run{Rig: rig.New(), spec: s,
			stop: warmup + sim.Duration(s.WindowUs)*sim.Microsecond}
		rn.SwitchRate(sim.BitRate(s.RateGbps) * sim.Gbps).SwitchQueueFrames(s.QueueFrames)
		parts := partsFor(rn)
		for _, p := range parts {
			p.build(rn)
		}
		rn.PinFDB()
		for _, p := range parts {
			p.start(rn)
		}
		rn.Quiesce(rn.stop+drain, func() {
			for _, p := range parts {
				p.sweep()
			}
		})
		snap := rn.Telemetry().Snapshot()
		sums := nicQueueSums(snap)
		var nodes, moved, vfTerms int
		rn.EachNode(func(name string, _ *flexdriver.NIC, _ *pcie.Fabric) {
			nodes++
			for i, l := range nicLaw {
				vf := snap.Sum(name+"/nic/vf", l.suffix)
				if vf > 0 {
					vfTerms++
				}
				want := snap.Sum(name+"/nic/"+l.scope, l.suffix) + vf
				if want > 0 {
					moved++
				}
				if sums[name][i] != want {
					t.Errorf("seed %d %s %s%s: one-pass %d, Sum oracle %d",
						tc.seed, name, l.scope, l.suffix, sums[name][i], want)
				}
			}
		})
		if len(sums) != nodes || moved < 2*nodes {
			t.Errorf("seed %d: sums for %d names, %d non-zero terms, cluster has %d nodes",
				tc.seed, len(sums), moved, nodes)
		}
		if (vfTerms > 0) != tc.tenants {
			t.Errorf("seed %d: %d VF-scoped terms, tenants=%v", tc.seed, vfTerms, tc.tenants)
		}
	}
}

// TestScenarioFootprint pins what building, running, judging and dropping
// one topology allocates, as TestEventsPerEcho pins events: the mean over
// Generate(1..20). The byte budget sits 4 % over the 2.62 MB measured under
// go1.24 once random sources, translation banks and descriptor pools were
// made on first draw, placement and Send (3.21 MB before; 4.96 MB before
// host DRAM and FLD SRAM shared one store of 1 KiB granules); the object
// budget still sits 4 % over the 7 338 measured before the store (7 308
// now). DESIGN "Simulator performance", construction ledger. Before the
// FLD SRAM went lazy and the translation tables packed, the same loop cost
// 6.81 MB and 10 156 objects.
func TestScenarioFootprint(t *testing.T) {
	const n, maxBytes, maxObjects = 20, 2_724_000, 7_630
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= n; seed++ {
		s := Generate(seed)
		if res := Run(s); len(res.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
	}
	runtime.ReadMemStats(&after)
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("%d objects and %d bytes per scenario", objects, bytes)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("per scenario: %d bytes (budget %d), %d objects (budget %d)",
			bytes, maxBytes, objects, maxObjects)
	}
}
