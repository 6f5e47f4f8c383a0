package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpecRoundTrip feeds arbitrary strings into ParseSpec. The
// parser must never panic; on every accepted spec the serialization must
// round-trip exactly: ParseSpec(cfg.String()) == cfg. This is the
// property the scenario shrinker relies on when it mutates a fault plan
// and re-emits it into a repro command.
//
// This fuzz target found two accepted-but-asymmetric inputs, both fixed
// in ParseSpec: NaN probabilities (pass the [0,1] range check because
// every NaN comparison is false, then never compare equal after a round
// trip) and negative durations (break the flap schedule's modulo
// arithmetic and the Start/Stop window).
func FuzzParseSpecRoundTrip(f *testing.F) {
	seeds := []string{
		"", "light", "heavy",
		"light,wire.loss=0.1",
		"pcie.drop=0.01,pcie.corrupt=0.005",
		"flap.every=400us,flap.for=3us",
		"db.loss=0.05,wqe.fail=0.01,cqe.err=0.01,accel.stall=0.02",
		"wire.loss=0.03,wire.dup=0.02,wire.delay=0.03,wire.delayby=2us",
		"wire.dir=1,wire.dropn=1;5;9",
		"start=150us,stop=950us",
		"wire.loss=NaN",
		"start=-5us",
		"wire.dropn=", "wire.dropn=1;;2", "=", ",,,", "light,light",
		"wire.loss=1e-300", "wire.loss=0.0000000001",
		"crash",
		"fld.reset.every=50us,fld.reset.for=7us",
		"nic.flr.every=30us,nic.flr.for=5us",
		"node.crash.every=60us,node.crash.for=8us,drv.crash.every=40us,drv.crash.for=3us",
		"sw.reboot.every=55us,sw.reboot.for=6us,part.every=45us,part.for=4us",
		"node.crash.every=-1us", "drv.crash.for=nan", "part.every=",
		"wire.loss=0.1,wire.loss=0.2", "wire.dropn=1;2,wire.dropn=3", "start=10000000s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		out := cfg.String()
		cfg2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok, but reparse of String %q failed: %v", spec, out, err)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("round trip mismatch for %q:\n first %+v\n via   %q\n second %+v", spec, cfg, out, cfg2)
		}
	})
}

// TestConfigStringZero pins the zero config's serialization: the empty
// string, which ParseSpec maps back to the zero config.
func TestConfigStringZero(t *testing.T) {
	var cfg Config
	if s := cfg.String(); s != "" {
		t.Fatalf("zero Config.String() = %q, want empty", s)
	}
}

// TestConfigStringPresets round-trips every preset through the
// serializer, so presets stay expressible as explicit specs (the
// shrinker expands a preset once and then narrows it field by field).
func TestConfigStringPresets(t *testing.T) {
	for name, cfg := range Presets {
		got, err := ParseSpec(cfg.String())
		if err != nil {
			t.Fatalf("preset %q: reparse of %q failed: %v", name, cfg.String(), err)
		}
		if !reflect.DeepEqual(cfg, got) {
			t.Fatalf("preset %q does not round-trip:\n have %+v\n got  %+v", name, cfg, got)
		}
	}
}

// TestParseSpecRejectsNonFinite pins the fuzz-found fixes.
func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{"wire.loss=NaN", "pcie.drop=nan", "start=-5us", "flap.every=-1ns"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted; want rejection", spec)
		}
	}
}
