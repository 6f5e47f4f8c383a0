package scenario

import (
	"testing"
)

// FuzzScenarioInvariants is the native-fuzzing face of the scenario
// harness: the fuzzer mutates a single int64 seed, each seed expands
// into a full topology + workload + fault plan, the scenario runs twice
// (Check adds the replay-determinism invariant), and every global
// invariant is judged against the telemetry tree. On a violation the
// shrinker reduces the spec before failing, so the fuzz crash report
// already carries the minimal deterministic repro command.
//
// A short smoke run (CI does `-fuzz=FuzzScenarioInvariants -fuzztime=30s`)
// covers a few hundred fresh seeds; longer local runs just keep walking
// the seed space.
func FuzzScenarioInvariants(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 11, 29, 42, 101, 977, 4242} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		res := Check(Generate(seed))
		if len(res.Violations) == 0 {
			return
		}
		v := res.Violations[0]
		min, runs := Shrink(res.Spec, v.Invariant)
		t.Fatalf("seed %d violated %s\n  shrunk after %d runs to: %s\n  repro: %s",
			seed, v, runs, min.String(), min.ReproCommand())
	})
}

// FuzzParseScenarioSpec feeds arbitrary strings into the spec parser.
// Parse must never panic, and every accepted spec must round-trip
// exactly through String — the property the shrinker and the repro
// command depend on. (This target found the NaN gbps hole: NaN passes a
// range check because every NaN comparison is false, then never compares
// equal after the round trip.)
func FuzzParseScenarioSpec(f *testing.F) {
	f.Add(Generate(1).String())
	f.Add(Generate(7).String())
	f.Add(Generate(5).String())  // multi-tenant draw
	f.Add(Generate(3).String())  // TCP-framed echo draw
	f.Add(Generate(53).String()) // key-value (rpc) serving draw
	f.Add("seed=5 clients=2 rdma=1 plant=40")
	f.Add("seed=3 clients=1 proto=tcp plantackdrop=30")
	f.Add("seed=5 clients=2 tenants=2 reconfig=1 plantleak=25")
	f.Add("tenants=2 path=vxlan")
	f.Add("frames=64:1024 gbps=2.5 path=vxlan faults=wire.loss=0.01,pcie.drop=0.005")
	f.Add("gbps=NaN")
	f.Add("frames=512:64")
	f.Add("pattern=bursty window=1001")
	f.Add("clients=1 clients=3")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		out := s.String()
		s2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but reparse of String %q failed: %v", text, out, err)
		}
		if s2 != s {
			t.Fatalf("round trip mismatch for %q:\n first %+v\n via   %q\n second %+v", text, s, out, s2)
		}
	})
}
