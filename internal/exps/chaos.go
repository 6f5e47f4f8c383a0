package exps

import (
	"cmp"
	"fmt"
	"strings"

	"flexdriver"
	"flexdriver/internal/scenario"
)

// Chaos runs the FLD-E echo under the fault storm ChaosSpec names and
// reports it as Scenario's replay mode does, a violation shrunk to a repro.
func Chaos(seed int64, faults string, window flexdriver.Duration) *Result {
	s, err := ChaosSpec(seed, faults, window)
	return judge("chaos", fmt.Sprintf("FLD-E cluster echo under fault injection (seed=%d, faults=%q)", seed, cmp.Or(s.Faults, faults)), err, s)
}

// ChaosSpec is the chaos scenario: one Poisson client offering 10 Gbps of
// 256 B frames to a one-core echo server, faults active for window and
// drawn from seed. faults is a faults.ParseSpec spec, "heavy" when empty;
// the whitespace ParseSpec allows between tokens is dropped, since a
// scenario spec is space-separated.
func ChaosSpec(seed int64, faults string, window flexdriver.Duration) (scenario.Spec, error) {
	if faults = strings.Join(strings.Fields(faults), ""); faults == "" {
		faults = "heavy"
	}
	return scenario.Parse(fmt.Sprintf("seed=%d clients=1 cores=1 rate=25 queue=64 pattern=poisson frames=256:256 gbps=10 window=%d path=eth faults=%s",
		seed, int64(window/flexdriver.Microsecond), faults))
}
