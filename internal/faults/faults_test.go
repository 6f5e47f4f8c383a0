package faults

import (
	"reflect"
	"testing"

	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/telemetry/bindtest"
)

// driveWire pushes n frames in each direction through a plan's wire
// hooks and returns the injection tallies. The wire is a bare Link —
// only the hook closures are exercised, so the tallies depend on
// nothing but the plan's own random stream.
func driveWire(seed int64, cfg Config, n int) Counts {
	p := NewPlan(seed, cfg)
	w := &nic.Link{}
	p.AttachLink(w, nil)
	frame := make([]byte, 64)
	for i := 0; i < n; i++ {
		for dir := 0; dir < 2; dir++ {
			if w.Loss(dir, frame) {
				continue
			}
			w.Dup(dir, frame)
			w.Delay(dir, frame)
		}
	}
	return p.Injected
}

// TestPlanDeterminism: identical (seed, config) pairs must inject the
// identical fault sequence — that is the whole point of the plan — and
// a different seed must diverge (or the "determinism" would be the
// degenerate kind).
func TestPlanDeterminism(t *testing.T) {
	cfg := Config{WireLoss: 0.2, WireDup: 0.1, WireDelay: 0.3}
	a := driveWire(42, cfg, 500)
	b := driveWire(42, cfg, 500)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("plan injected nothing; the determinism check is vacuous")
	}
	c := driveWire(43, cfg, 500)
	if a == c {
		t.Fatalf("different seeds produced identical tallies %+v — stream not seeded", a)
	}
}

// TestWindowGatesInjection: outside [Start, Stop) the plan is inert;
// unbound plans (no engine) are always active.
func TestWindowGatesInjection(t *testing.T) {
	cfg := Config{WireLoss: 1, Start: 10 * sim.Microsecond, Stop: 20 * sim.Microsecond}
	eng := sim.NewEngine()
	p := NewPlan(1, cfg)
	p.Bind(eng)
	w := &nic.Link{}
	p.AttachLink(w, nil)

	frame := make([]byte, 64)
	if w.Loss(0, frame) {
		t.Fatal("injected before the window opened")
	}
	eng.After(15*sim.Microsecond, func() {
		if !w.Loss(0, frame) {
			t.Error("no injection inside the window despite probability 1")
		}
	})
	eng.After(25*sim.Microsecond, func() {
		if w.Loss(0, frame) {
			t.Error("injected after the window closed")
		}
	})
	eng.Run()
	if p.Injected.WireLosses != 1 {
		t.Fatalf("WireLosses = %d, want exactly 1 (the in-window frame)", p.Injected.WireLosses)
	}
}

// TestDeterministicDropOrdinals: WireDropNth drops exactly the named
// per-direction ordinals, ignores the window, and counts separately
// from probabilistic losses.
func TestDeterministicDropOrdinals(t *testing.T) {
	p := NewPlan(1, Config{WireDropNth: []int64{2, 5}, WireDir: 1})
	w := &nic.Link{}
	p.AttachLink(w, nil)
	frame := make([]byte, 64)

	var dropped []int
	for i := 1; i <= 6; i++ {
		if w.Loss(0, frame) {
			dropped = append(dropped, i)
		}
	}
	if len(dropped) != 2 || dropped[0] != 2 || dropped[1] != 5 {
		t.Fatalf("dir-0 drops at ordinals %v, want [2 5]", dropped)
	}
	// Direction 1 is excluded by WireDir and keeps its own ordinal count.
	for i := 1; i <= 6; i++ {
		if w.Loss(1, frame) {
			t.Fatalf("dir-1 frame %d dropped despite WireDir=1", i)
		}
	}
	if p.Injected.WireDropped != 2 || p.Injected.WireLosses != 0 {
		t.Fatalf("tallies = %+v, want WireDropped=2 WireLosses=0", p.Injected)
	}
}

// TestAttachLinkPerLinkOrdinals: when one plan serves several links —
// the switched-cluster case — WireDropNth counts per link, so every
// cable drops its own Nth frame rather than sharing one global ordinal
// stream.
func TestAttachLinkPerLinkOrdinals(t *testing.T) {
	p := NewPlan(1, Config{WireDropNth: []int64{2}})
	var l1, l2 nic.Link
	p.AttachLink(&l1, nil)
	p.AttachLink(&l2, nil)
	frame := make([]byte, 64)

	for name, l := range map[string]*nic.Link{"first": &l1, "second": &l2} {
		var dropped []int
		for i := 1; i <= 4; i++ {
			if l.Loss(0, frame) {
				dropped = append(dropped, i)
			}
		}
		if len(dropped) != 1 || dropped[0] != 2 {
			t.Errorf("%s link dropped ordinals %v, want [2]", name, dropped)
		}
	}
	if p.Injected.WireDropped != 2 {
		t.Fatalf("WireDropped = %d, want 2 (one per link)", p.Injected.WireDropped)
	}
}

func TestParseSpec(t *testing.T) {
	// Preset lookup.
	got, err := ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Presets["heavy"]) {
		t.Fatalf("ParseSpec(heavy) = %+v, want the heavy preset", got)
	}

	// Preset + overrides: later keys win over the preset's values.
	got, err = ParseSpec("light, wire.loss=0.5, flap.every=200us, wire.dir=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Presets["light"]
	want.WireLoss = 0.5
	want.FlapEvery = 200 * sim.Microsecond
	want.WireDir = 2
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("preset+override = %+v, want %+v", got, want)
	}

	// Standalone key=value pairs, including ordinal lists and durations.
	got, err = ParseSpec("wire.dropn=1;5;9, start=100us, stop=1ms, pcie.drop=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.WireDropNth) != 3 || got.WireDropNth[0] != 1 || got.WireDropNth[2] != 9 {
		t.Fatalf("WireDropNth = %v, want [1 5 9]", got.WireDropNth)
	}
	if got.Start != 100*sim.Microsecond || got.Stop != sim.Millisecond || got.PCIeDrop != 0.25 {
		t.Fatalf("parsed = %+v", got)
	}

	// Empty spec is the zero config (no faults).
	if got, err = ParseSpec(""); err != nil || !reflect.DeepEqual(got, Config{}) {
		t.Fatalf("ParseSpec(\"\") = %+v, %v", got, err)
	}

	// Errors: unknown preset/key, out-of-range probability, preset not
	// first, bad direction.
	for _, bad := range []string{
		"medium",
		"wire.loss=1.5",
		"nonsense.key=1",
		"wire.loss=0.1,heavy",
		"wire.dir=3",
		"flap.every=fast",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

// TestParseSpecFailureDomains table-tests the crash-class keys: each
// class parses into its Config pair and round-trips through String, and
// every malformed form — unknown class, malformed rate, empty value — is
// rejected with a diagnostic naming the offending key.
func TestParseSpecFailureDomains(t *testing.T) {
	valid := []struct {
		spec string
		want Config
	}{
		{"fld.reset.every=50us,fld.reset.for=7us",
			Config{FLDResetEvery: 50 * sim.Microsecond, FLDResetFor: 7 * sim.Microsecond}},
		{"nic.flr.every=30us,nic.flr.for=5us",
			Config{NICFLREvery: 30 * sim.Microsecond, NICFLRFor: 5 * sim.Microsecond}},
		{"node.crash.every=60us,node.crash.for=8us",
			Config{NodeCrashEvery: 60 * sim.Microsecond, NodeCrashFor: 8 * sim.Microsecond}},
		{"drv.crash.every=40us,drv.crash.for=3us",
			Config{DrvCrashEvery: 40 * sim.Microsecond, DrvCrashFor: 3 * sim.Microsecond}},
		{"sw.reboot.every=55us,sw.reboot.for=6us",
			Config{SwRebootEvery: 55 * sim.Microsecond, SwRebootFor: 6 * sim.Microsecond}},
		{"part.every=45us,part.for=4us",
			Config{PartEvery: 45 * sim.Microsecond, PartFor: 4 * sim.Microsecond}},
	}
	for _, tc := range valid {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if rt, err := ParseSpec(got.String()); err != nil || !reflect.DeepEqual(got, rt) {
			t.Errorf("%q does not round-trip: %+v vs %+v (%v)", tc.spec, got, rt, err)
		}
	}

	invalid := []struct {
		name, spec string
	}{
		{"unknown class", "afu.crash.every=50us"},
		{"unknown subkey", "node.crash.often=50us"},
		{"malformed rate", "nic.flr.every=fast"},
		{"rate not a duration", "drv.crash.for=0.5"},
		{"negative duration", "fld.reset.for=-3us"},
		{"empty value", "sw.reboot.every="},
		{"missing value", "part.every"},
	}
	for _, tc := range invalid {
		if _, err := ParseSpec(tc.spec); err == nil {
			t.Errorf("%s: ParseSpec(%q) accepted, want error", tc.name, tc.spec)
		}
	}
}

// TestInjectedIsPublishedWhole: every class tallied in Plan.Injected is
// the counter at faults/injected/<class> — one cell, no mirror — and a
// class added to Counts without a SetTelemetry line fails here. A loss
// injected through a hook lands at its path with nothing in between.
func TestInjectedIsPublishedWhole(t *testing.T) {
	reg := telemetry.New()
	p := NewPlan(1, Config{WireDropNth: []int64{1}})
	p.SetTelemetry(reg.Scope("faults"))
	p.SetTelemetry(reg.Scope("faults")) // every node of a testbed calls it

	var l nic.Link
	p.AttachLink(&l, nil)
	if !l.Loss(0, nil) {
		t.Fatal("first frame must be dropped")
	}
	if got := reg.Snapshot().Get("faults/injected/wire_dropped"); got != 1 || p.Injected.WireDropped != 1 {
		t.Fatalf("registry %d, Injected %d, want 1 1", got, p.Injected.WireDropped)
	}

	bindtest.Fields(t, reg, "faults/injected/", &p.Injected, map[string]string{
		"PCIeDrops": "pcie_drops", "PCIeCorrupts": "pcie_corrupts", "LinkFlapTLPs": "link_flap_tlps",
		"DoorbellLosses": "doorbell_losses", "WQEFetchFails": "wqe_fetch_fails", "CQEErrors": "cqe_errors",
		"AccelStalls": "accel_stalls",
		"WireLosses":  "wire_losses", "WireDups": "wire_dups", "WireDelays": "wire_delays", "WireDropped": "wire_dropped",
		"FLDResets": "fld_resets", "NICFLRs": "nic_flrs", "NodeCrashes": "node_crashes",
		"DrvCrashes": "drv_crashes", "SwReboots": "sw_reboots", "PartitionDrops": "partition_drops",
	})
	if tel := reg.Snapshot().Sum("faults/injected/", ""); tel != p.Injected.Total() {
		t.Fatalf("faults/injected/* sums to %d, Total() is %d", tel, p.Injected.Total())
	}
}

// TestSpecKeysCoverConfig: the spec table names every Config field
// exactly once, so a field added without a key (or a key pointing at the
// wrong field) cannot parse, print or round-trip silently.
func TestSpecKeysCoverConfig(t *testing.T) {
	var cfg Config
	seen := map[any]string{}
	for _, k := range specKeys.Fields {
		f := k.Ptr(&cfg)
		if prev, dup := seen[f]; dup {
			t.Errorf("keys %q and %q share one field", prev, k.Key)
		}
		seen[f] = k.Key
	}
	if n := reflect.TypeOf(cfg).NumField(); len(seen) != n {
		t.Fatalf("%d keys for %d Config fields", len(seen), n)
	}
}
