package scenario

import (
	"strings"
	"testing"
)

// TestProtoGeneration pins the TCP/RPC serving draw the way the tenancy
// and aggregation tests pin theirs: the proto stream is XOR-separated
// from the other field streams precisely so the golden-pinned seeds
// (2, 5, 7, 27) keep byte-identical specs, while the nearby band must
// keep producing both TCP-framed and key-value scenarios or the sweeps
// stop exercising the serving path. Seeds 3 and 53 are pinned exactly:
// the plant test below builds on 3, the fuzz corpus's rpc entry on 53.
func TestProtoGeneration(t *testing.T) {
	for _, seed := range []int64{2, 5, 7, 27} {
		if s := Generate(seed); s.Proto != "" || s.PlantAckDropNth != 0 {
			t.Errorf("pinned seed %d grew a proto sidecar: %v", seed, s)
		}
	}
	if s := Generate(3); s.Proto != "tcp" {
		t.Errorf("seed 3 no longer draws proto=tcp: %v", s)
	}
	if s := Generate(53); s.Proto != "rpc" {
		t.Errorf("seed 53 no longer draws proto=rpc: %v", s)
	}
	tcpN, rpcN := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		s := Generate(seed)
		switch s.Proto {
		case "":
			continue
		case "tcp":
			tcpN++
		case "rpc":
			rpcN++
		default:
			t.Errorf("seed %d: unknown proto %q", seed, s.Proto)
		}
		if s.Path != "eth" {
			t.Errorf("seed %d: proto scenario on path=%s", seed, s.Path)
		}
		if s.Tenants != 0 {
			t.Errorf("seed %d: proto scenario with tenants: %v", seed, s)
		}
		if _, err := Parse(s.String()); err != nil {
			t.Errorf("seed %d: generated proto spec does not re-parse: %v", seed, err)
		}
	}
	if tcpN < 2 || rpcN < 1 {
		t.Errorf("seeds 1..60 yield %d tcp / %d rpc scenarios; the sweep band lost its serving coverage",
			tcpN, rpcN)
	}
}

// TestProtoParseRejections covers the cross-field validation of the new
// spec keys: a proto needs the plain-Ethernet single-tenant data path,
// and the ack-drop plant needs the sidecar the proto builds.
func TestProtoParseRejections(t *testing.T) {
	for _, text := range []string{
		"proto=http",
		"proto=tcp path=vxlan",
		"tenants=2 proto=rpc",
		"plantackdrop=5",
		"proto=tcp plantackdrop=-1",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", text)
		}
	}
}

// TestPlantedAckDropIsCaughtAndShrunk plants the modeled defect the
// tcp-delivery invariant exists for: after N acks the sidecar sender's
// ack path goes dark, the window fills, the retry budget burns to Error
// and the flushed messages never arrive — delivered < sent on a fabric
// with zero injected faults. The shrinker must keep the sidecar (the
// plant pins it) while shedding what it can, and the shrunk repro line
// must still reproduce.
func TestPlantedAckDropIsCaughtAndShrunk(t *testing.T) {
	s := Generate(3) // a proto=tcp draw (pinned by TestProtoGeneration)
	if s.Proto != "tcp" {
		t.Fatalf("seed 3 no longer expands to a TCP scenario: %v", s)
	}
	s.Faults = "" // a clean fabric: the only defect is the planted ack drop
	s.PlantAckDropNth = 30
	if s.WindowUs < 200 {
		// The stall needs window for a full RTO*MaxRetries escalation
		// (~90us) plus the flush it causes.
		s.WindowUs = 200
	}

	res := Run(s)
	if !res.Violated("tcp-delivery") {
		t.Fatalf("planted ack drop not caught (sent %d delivered %d); violations: %v",
			res.TCPSent, res.TCPDelivered, res.Violations)
	}

	min, runs := Shrink(s, "tcp-delivery")
	t.Logf("shrunk after %d runs to: %s", runs, min)
	if min.Proto == "" {
		t.Errorf("shrinker dropped the sidecar the planted defect lives in: %v", min)
	}
	if min.RDMA {
		t.Errorf("shrinker kept the RDMA sidecar; the bug is in the TCP ack path")
	}

	line := min.ReproCommand()
	if !strings.Contains(line, "fldreport -exp scenario") {
		t.Fatalf("repro command malformed: %q", line)
	}
	reparsed, err := Parse(min.String())
	if err != nil {
		t.Fatalf("shrunk spec does not re-parse: %v", err)
	}
	if !Run(reparsed).Violated("tcp-delivery") {
		t.Fatalf("re-parsed shrunk spec no longer reproduces the violation")
	}
}
