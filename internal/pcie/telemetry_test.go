package pcie

import (
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/telemetry/bindtest"
)

// TestLedgerIsPublishedWhole: the fabric's error counts and each port's
// wire bytes are the counters at their paths, whether the port attached
// before or after SetTelemetry; a field added to FabricErrors or Port
// without a CounterVar line fails.
func TestLedgerIsPublishedWhole(t *testing.T) {
	_, fab, _, early, _, _ := newTestFabric(t)
	reg := telemetry.New()
	fab.SetTelemetry(reg.Scope("pcie"))
	late := fab.Attach(hostmem.New("devC", 1<<20), Gen3x8())

	bindtest.Fields(t, reg, "pcie/", &fab.Errs, map[string]string{
		"UR": "errors/ur", "CplTimeouts": "errors/cpl_timeout",
		"DroppedTLPs": "errors/dropped", "Poisoned": "errors/poisoned",
	})
	for _, p := range []*Port{early, late} {
		bindtest.Fields(t, reg, "pcie/"+p.Device().PCIeName()+"/", p, map[string]string{
			"UpBytes": "up/bytes", "DownBytes": "down/bytes",
		})
	}
}
