package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/pcie"
)

// linkRows adds one row per fabric port with the wire bytes charged to
// each direction of its link.
func linkRows(r *Result, node string, fab *pcie.Fabric) {
	for _, p := range fab.Ports() {
		r.AddRow(node+"/"+p.Device().PCIeName(), d64(p.UpBytes), d64(p.DownBytes))
	}
}

// TelemetryWithRegistry runs the §8.1.1 FLD-E remote echo with full
// telemetry (every layer instrumented, TLP flight recorder enabled),
// prints each PCIe link's wire bytes, and checks that:
//
//   - every stage of the data path (client doorbells and WQE fetches,
//     server FLD MMIO WQEs, eSwitch steering, CQE writes) shows up as a
//     nonzero counter;
//   - the flight recorder captured all three TLP types.
//
// The registry and recorder are returned so cmd/fldreport can dump the
// counter snapshot and export the Chrome trace.
func TelemetryWithRegistry(window flexdriver.Duration) (*Result, *flexdriver.Registry, *flexdriver.Recorder) {
	r := &Result{ID: "telemetry", Title: "Telemetry on the FLD-E remote echo"}
	r.Columns = []string{"link", "up B", "down B"}

	reg := flexdriver.NewRegistry()
	rec := reg.EnableRecorder(0) // default capacity
	rp, port := fldeRemoteBed(flexdriver.WithTelemetry(reg))

	achieved := measureEcho(rp.Engine(), port, 1024, 24, window)

	snap := reg.Snapshot()

	linkRows(r, "client", rp.Client.Fab)
	linkRows(r, "server", rp.Server.Fab)

	// Every stage of the §8.1.1 data path must be visible in the counters.
	stages := []struct {
		name string
		v    int64
	}{
		{"client SQ doorbells", snap.Sum("client/swdriver/", "/tx/doorbells")},
		{"client NIC WQE fetch reads", snap.Sum("client/nic/", "/wqe_fetch_reads")},
		{"client NIC WQEs fetched", snap.Sum("client/nic/", "/wqe_fetched")},
		{"client NIC CQEs", snap.Sum("client/nic/", "/cqes")},
		{"server eSwitch rule hits", snap.Sum("server/nic/eswitch/", "/hits")},
		{"server NIC CQEs", snap.Sum("server/nic/", "/cqes")},
		{"server FLD RQ doorbells", snap.Get("server/fld/doorbells/rq")},
		{"server FLD MMIO WQEs", snap.Get("server/fld/doorbells/wqe_mmio")},
		{"server FLD RX CQEs", snap.Get("server/fld/cqe/rx")},
		{"server FLD TX CQEs", snap.Get("server/fld/cqe/tx")},
		{"MemWr TLP segments (both nodes)", snap.Sum("", "/memwr")},
		{"MemRd TLP segments (both nodes)", snap.Sum("", "/memrd")},
		{"CplD TLP segments (both nodes)", snap.Sum("", "/cpld")},
	}
	allStages := true
	for _, sg := range stages {
		r.AddRow(sg.name, d64(sg.v), "-")
		if sg.v == 0 {
			allStages = false
		}
	}
	r.Check("every data-path stage has nonzero counters", 1, b2f(allStages), "",
		allStages, "doorbells, WQE fetches, CQEs, TLP types")

	// Flight recorder: saw traffic, and saw all three TLP types.
	var sawType [3]bool
	for _, ev := range rec.Events() {
		sawType[ev.Type] = true
	}
	allTypes := sawType[0] && sawType[1] && sawType[2]
	r.Check("flight recorder captured TLPs", 1, b2f(rec.Total() > 0), "",
		rec.Total() > 0, "")
	r.Check("recorder saw MemWr+MemRd+CplD", 1, b2f(allTypes), "", allTypes, "")
	r.Check("echo goodput under telemetry", 1, b2f(achieved > 1), "",
		achieved > 1, "instrumented run still moves traffic")
	return r, reg, rec
}

func d64(v int64) string { return fmt.Sprintf("%d", v) }
