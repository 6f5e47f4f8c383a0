package flexdriver

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flexdriver/internal/accel/echo"
	"flexdriver/internal/pcie"
	"flexdriver/internal/swdriver"
)

// telemetryEchoBed builds the §8.1.1 remote echo topology with the
// given registry wired into every layer of both nodes.
func telemetryEchoBed(t *testing.T, reg *Registry) (*RemotePair, *swdriver.EthPort) {
	t.Helper()
	rp := NewRemotePair(WithTelemetry(reg))
	srv := rp.Server
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	echo.New(srv.FLD)

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
	return rp, port
}

// checkFabricReconciles asserts that for every port on the fabric the
// telemetry byte counters equal the port's own UpBytes/DownBytes
// accounting — the fabric increments both at the same six code points,
// so any divergence is an instrumentation bug.
func checkFabricReconciles(t *testing.T, snap Snapshot, node string, fab *pcie.Fabric) {
	t.Helper()
	for _, p := range fab.Ports() {
		dev := p.Device().PCIeName()
		if got := snap.Get(node + "/pcie/" + dev + "/up/bytes"); got != p.UpBytes {
			t.Errorf("%s/%s up: telemetry %d bytes, port accounting %d", node, dev, got, p.UpBytes)
		}
		if got := snap.Get(node + "/pcie/" + dev + "/down/bytes"); got != p.DownBytes {
			t.Errorf("%s/%s down: telemetry %d bytes, port accounting %d", node, dev, got, p.DownBytes)
		}
	}
}

// TestTelemetryEchoReconciliation runs the flagship echo with telemetry
// attached and verifies the facade accessors, byte-exact PCIe
// reconciliation, data-path counter coverage, and snapshot diffs.
func TestTelemetryEchoReconciliation(t *testing.T) {
	reg := NewRegistry()
	rp, port := telemetryEchoBed(t, reg)

	if rp.Client.Telemetry() != reg || rp.Server.tel != reg {
		t.Fatal("Telemetry() accessor does not return the registry the testbed was built with")
	}

	frame := buildUDPFrame(1, 2, 4000, 7777, 512)
	got := 0
	port.OnReceive = func([]byte, swdriver.RxMeta) { got++ }
	const n1 = 50
	for i := 0; i < n1; i++ {
		port.Send(frame)
	}
	rp.Run()
	snap1 := reg.Snapshot()

	const n2 = 30
	for i := 0; i < n2; i++ {
		port.Send(frame)
	}
	rp.Run()
	snap2 := reg.Snapshot()

	if got != n1+n2 {
		t.Fatalf("echo received %d frames, want %d", got, n1+n2)
	}

	checkFabricReconciles(t, snap2, "client", rp.Client.Fab)
	checkFabricReconciles(t, snap2, "server", rp.Server.Fab)

	// Every data-path stage must be visible. Queue IDs are dynamic, so
	// aggregate by path suffix.
	sum := func(prefix, suffix string) int64 {
		var tot int64
		for p, v := range snap2.Counters {
			if strings.HasPrefix(p, prefix) && strings.HasSuffix(p, suffix) {
				tot += v
			}
		}
		return tot
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"client tx doorbells", sum("client/swdriver/", "/tx/doorbells")},
		{"client NIC WQE fetches", sum("client/nic/", "/wqe_fetched")},
		{"client NIC CQEs", sum("client/nic/", "/cqes")},
		{"server eSwitch hits", sum("server/nic/eswitch/", "/hits")},
		{"server FLD RX CQEs", snap2.Counters["server/fld/cqe/rx"]},
		{"server FLD TX CQEs", snap2.Counters["server/fld/cqe/tx"]},
		{"server FLD MMIO WQEs", snap2.Counters["server/fld/doorbells/wqe_mmio"]},
		{"MemWr TLPs", sum("", "/memwr")},
		{"MemRd TLPs", sum("", "/memrd")},
		{"CplD TLPs", sum("", "/cpld")},
	} {
		if c.v == 0 {
			t.Errorf("%s: counter is zero after echo traffic", c.name)
		}
	}

	// FLD-level packet counters must agree with the FLD's own stats.
	if v := snap2.Counters["server/fld/rx/packets"]; v != int64(rp.Server.FLD.Stats.RxPackets) {
		t.Errorf("server/fld/rx/packets = %d, FLD.Stats.RxPackets = %d", v, rp.Server.FLD.Stats.RxPackets)
	}

	// Diff semantics: the second batch's delta, and a positive interval.
	d := snap2.Diff(snap1)
	if iv := snap2.At - snap1.At; iv <= 0 {
		t.Errorf("snapshot interval = %v, want > 0", iv)
	}
	rx1 := snap1.Counters["server/fld/rx/packets"]
	rx2 := snap2.Counters["server/fld/rx/packets"]
	if d.Counters["server/fld/rx/packets"] != rx2-rx1 {
		t.Errorf("diff = %d, want %d", d.Counters["server/fld/rx/packets"], rx2-rx1)
	}
	if rx2-rx1 != n2 {
		t.Errorf("second-batch FLD rx delta = %d, want %d", rx2-rx1, n2)
	}

	// The snapshot dump must render every path.
	dump := snap2.String()
	for _, want := range []string{"client/pcie/", "server/fld/", "server/nic/", "client/swdriver/"} {
		if !strings.Contains(dump, want) {
			t.Errorf("snapshot dump missing %q", want)
		}
	}
}

// TestTelemetryChromeTrace enables the flight recorder, runs echo
// traffic, and verifies the exported Chrome trace_event JSON is valid
// and covers every link of both fabrics.
func TestTelemetryChromeTrace(t *testing.T) {
	reg := NewRegistry()
	rec := reg.EnableRecorder(1 << 14)
	rp, port := telemetryEchoBed(t, reg)

	frame := buildUDPFrame(1, 2, 4000, 7777, 1024)
	for i := 0; i < 40; i++ {
		port.Send(frame)
	}
	rp.Run()

	if rec.Total() == 0 {
		t.Fatal("flight recorder captured no TLP events")
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	// Each link appears as a process_name metadata event; every device
	// on both fabrics moved traffic in this test.
	links := map[string]bool{}
	complete := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			if strings.HasPrefix(ev.Name, "process_name") {
				links[ev.Name] = true
			}
		case "X":
			complete++
		}
	}
	if complete != rec.Len() {
		t.Errorf("trace has %d complete events, recorder holds %d", complete, rec.Len())
	}

	// The recorder's wire-byte total must also reconcile with the port
	// accounting when nothing was overwritten.
	if rec.Total() == uint64(rec.Len()) {
		var recWire, portWire int64
		for _, ev := range rec.Events() {
			recWire += int64(ev.Wire)
		}
		for _, fab := range []*pcie.Fabric{rp.Client.Fab, rp.Server.Fab} {
			for _, p := range fab.Ports() {
				portWire += p.UpBytes + p.DownBytes
			}
		}
		if recWire != portWire {
			t.Errorf("recorder wire bytes %d != port accounting %d", recWire, portWire)
		}
	}
}

// TestTelemetryDisabled verifies the nil-registry default: accessors
// return nil and the data path is untouched.
func TestTelemetryDisabled(t *testing.T) {
	rp := NewRemotePair()
	if rp.Client.Telemetry() != nil || rp.Server.tel != nil {
		t.Fatal("Telemetry() must be nil when built without WithTelemetry")
	}
	var reg *Registry
	snap := reg.Snapshot() // nil registry yields an empty snapshot
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}
