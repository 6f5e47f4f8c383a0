package flexdriver_test

// Chaos regression: the FLD-E echo must survive deterministic fault
// storms — every invariant of internal/scenario holding — for several
// distinct seeds. A failure prints the full report, whose shrunk repro
// line replays the violation; the unshrunk storm replays with
//
//	go run ./cmd/fldreport -exp chaos -seed <seed> -faults <preset>
//
// The test lives outside package flexdriver so it exercises the same
// public facade path the CLI does.

import (
	"testing"

	"flexdriver"
	"flexdriver/internal/exps"
	"flexdriver/internal/scenario"
)

func TestChaosAcrossSeeds(t *testing.T) {
	const window = 300 * flexdriver.Microsecond
	for _, faults := range []string{"heavy", "crash"} {
		for _, seed := range []int64{1, 2, 3, 4, 5, 42, 1234} {
			if r := exps.Chaos(seed, faults, window); !r.Passed() {
				t.Errorf("chaos failed for seed %d, faults %s:\n%s", seed, faults, r.String())
			}
		}
	}
}

// TestChaosZeroFaultsLossless pins the loss bound's teeth: with an
// empty fault config the chaos scenario loses and duplicates nothing,
// a stronger claim than the conservation budget, which would excuse
// switch tail drops.
func TestChaosZeroFaultsLossless(t *testing.T) {
	s, err := exps.ChaosSpec(1, "wire.loss=0", 300*flexdriver.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res := scenario.Check(s); len(res.Violations) > 0 || res.Sent == 0 || res.Lost != 0 || res.Dups != 0 {
		t.Fatalf("fault-free chaos run: %d sent, %d lost, %d dups, violations %v",
			res.Sent, res.Lost, res.Dups, res.Violations)
	}
}

// TestChaosFaultSpecWithSpaces: -faults accepts the whitespace
// faults.ParseSpec allows around its separators, and the chaos
// scenario's repro spec still parses back to the same Spec.
func TestChaosFaultSpecWithSpaces(t *testing.T) {
	const faults, window = "light, wire.loss=0.1", 300 * flexdriver.Microsecond
	if r := exps.Chaos(1, faults, window); !r.Passed() {
		t.Fatalf("chaos failed for faults %q:\n%s", faults, r.String())
	}
	s, err := exps.ChaosSpec(1, faults, window)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := scenario.Parse(s.String()); err != nil || back != s {
		t.Fatalf("repro spec %q parses to %+v, %v; want %+v", s.String(), back, err, s)
	}
}
