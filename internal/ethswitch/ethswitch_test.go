package ethswitch

import (
	"fmt"
	"testing"

	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
	"flexdriver/internal/telemetry/bindtest"
)

// stubEP is a minimal Endpoint: it records every delivered frame and
// its arrival time.
type stubEP struct {
	eng  *sim.Engine
	port nic.Port
	got  [][]byte
	at   []sim.Time
}

func (s *stubEP) AttachPort(p nic.Port) { s.port = p }
func (s *stubEP) Engine() *sim.Engine   { return s.eng }
func (s *stubEP) Ingress(frame []byte) {
	s.got = append(s.got, append([]byte(nil), frame...))
	s.at = append(s.at, s.eng.Now())
}

func frameBetween(src, dst netpkt.MAC, n int) []byte {
	f := (netpkt.Eth{Dst: dst, Src: src, EtherType: 0x0800}).Marshal(nil)
	for len(f) < n {
		f = append(f, byte(len(f)))
	}
	return f
}

func testFabric(t *testing.T, n int, cfg Config) (*sim.Engine, *Switch, []*stubEP, []*Port) {
	t.Helper()
	eng := sim.NewEngine()
	sw := New(eng, cfg)
	eps := make([]*stubEP, n)
	ports := make([]*Port, n)
	for i := range eps {
		eps[i] = &stubEP{eng: eng}
		ports[i] = sw.Connect(eps[i])
	}
	return eng, sw, eps, ports
}

func mac(i int) netpkt.MAC { return netpkt.MACFrom(1000 + i) }

func TestLearningAndFlooding(t *testing.T) {
	eng, sw, eps, _ := testFabric(t, 3, Config{})

	// Unknown destination: flooded to both other ports, source learned.
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 1 || len(eps[2].got) != 1 {
		t.Fatalf("flood delivered %d/%d copies, want 1/1", len(eps[1].got), len(eps[2].got))
	}
	if sw.Stats.Floods != 1 || sw.Stats.Forwarded != 0 {
		t.Fatalf("stats after flood: %+v", sw.Stats)
	}

	// Reply: destination already learned, unicast to port 0 only.
	eps[1].port.Send(frameBetween(mac(1), mac(0), 100), nil)
	eng.Run()
	if len(eps[0].got) != 1 || len(eps[2].got) != 1 {
		t.Fatalf("unicast delivered to wrong ports: %d/%d", len(eps[0].got), len(eps[2].got))
	}
	if sw.Stats.Forwarded != 1 {
		t.Fatalf("stats after unicast: %+v", sw.Stats)
	}

	// Both MACs now learned; a third exchange floods nothing.
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 2 || len(eps[2].got) != 1 {
		t.Fatalf("learned unicast delivered to wrong ports: %d/%d", len(eps[1].got), len(eps[2].got))
	}
	if sw.FDBSize() != 2 {
		t.Fatalf("fdb size = %d, want 2", sw.FDBSize())
	}
}

// TestStoreAndForwardTiming pins the two-segment delivery time:
// ingress serialization + latency, then egress serialization + latency.
func TestStoreAndForwardTiming(t *testing.T) {
	eng, sw, eps, _ := testFabric(t, 2, Config{})
	sw.Program(mac(1), sw.Ports()[1])
	f := frameBetween(mac(0), mac(1), 300)
	eps[0].port.Send(f, nil)
	eng.Run()
	if len(eps[1].got) != 1 {
		t.Fatalf("delivered %d frames", len(eps[1].got))
	}
	ser := sw.Rate().Serialize(len(f) + nic.EthWireOverhead)
	want := 2*ser + 2*500*sim.Nanosecond
	if eps[1].at[0] != want {
		t.Fatalf("delivery at %v, want %v", eps[1].at[0], want)
	}
}

func TestHairpinFiltered(t *testing.T) {
	eng, sw, eps, _ := testFabric(t, 2, Config{})
	// Teach the switch mac(0) is on port 0, then address a frame to it
	// from port 0 itself.
	eps[0].port.Send(frameBetween(mac(0), mac(9), 100), nil)
	eng.Run()
	eps[0].port.Send(frameBetween(mac(0), mac(0), 100), nil)
	eng.Run()
	if sw.Stats.Filtered != 1 {
		t.Fatalf("filtered = %d, want 1", sw.Stats.Filtered)
	}
	if len(eps[0].got) != 0 {
		t.Fatal("hairpin frame delivered back to its source")
	}
}

func TestBroadcastFloods(t *testing.T) {
	eng, sw, eps, _ := testFabric(t, 4, Config{})
	bcast := netpkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	eps[0].port.Send(frameBetween(mac(0), bcast, 100), nil)
	eng.Run()
	for i := 1; i < 4; i++ {
		if len(eps[i].got) != 1 {
			t.Fatalf("port %d got %d copies of broadcast", i, len(eps[i].got))
		}
	}
	if sw.Stats.Floods != 1 {
		t.Fatalf("floods = %d", sw.Stats.Floods)
	}
}

// TestTailDropUnderFanIn: two senders at line rate into one output port
// overload it 2:1; the bounded queue tail-drops, and every offered
// frame is either delivered or accounted as dropped.
func TestTailDropUnderFanIn(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 3, Config{QueueFrames: 4})
	sw.Program(mac(2), ports[2])
	const burst = 100
	for i := 0; i < burst; i++ {
		eps[0].port.Send(frameBetween(mac(0), mac(2), 500), nil)
		eps[1].port.Send(frameBetween(mac(1), mac(2), 500), nil)
	}
	eng.Run()
	drops := ports[2].Counters.TailDrops
	if drops == 0 {
		t.Fatal("no tail drops under 2:1 fan-in with a 4-frame queue")
	}
	if got := int64(len(eps[2].got)); got+drops != 2*burst {
		t.Fatalf("delivered %d + dropped %d != offered %d", got, drops, 2*burst)
	}
	if ports[2].Counters.TxFrames != int64(len(eps[2].got)) {
		t.Fatalf("TxFrames %d != delivered %d", ports[2].Counters.TxFrames, len(eps[2].got))
	}
}

// TestLinkFaultHooks: the per-port Link carries the same Loss/Dup hooks
// as a cable, in both directions.
func TestLinkFaultHooks(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 2, Config{})
	sw.Program(mac(1), ports[1])

	// Drop everything the NIC sends on port 0 (dir 0).
	ports[0].Link().Loss = func(dir int, _ []byte) bool { return dir == 0 }
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 0 || ports[0].Link().Lost[0] != 1 {
		t.Fatalf("dir-0 loss not applied: got=%d lost=%d", len(eps[1].got), ports[0].Link().Lost[0])
	}
	ports[0].Link().Loss = nil

	// Duplicate everything delivered toward the NIC on port 1 (dir 1).
	ports[1].Link().Dup = func(dir int, _ []byte) bool { return dir == 1 }
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 2 {
		t.Fatalf("dir-1 dup delivered %d copies, want 2", len(eps[1].got))
	}
	if eps[1].at[0] == eps[1].at[1] {
		t.Fatal("duplicate copies share one timestamp; want staggered")
	}
}

func TestSwitchTelemetry(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.New()
	reg.Bind(eng.Now)
	sw := New(eng, Config{})
	sw.SetTelemetry(reg.Scope("switch"))
	eps := []*stubEP{{eng: eng}, {eng: eng}}
	for _, ep := range eps {
		sw.Connect(ep)
	}
	eps[0].port.Send(frameBetween(mac(0), mac(1), 200), nil)
	eng.Run()
	snap := reg.Snapshot()
	for k, want := range map[string]int64{
		"switch/floods":          1,
		"switch/port0/rx/frames": 1,
		"switch/port0/rx/bytes":  200,
		"switch/port1/tx/frames": 1,
		"switch/port1/tx/bytes":  200,
	} {
		if snap.Get(k) != want {
			t.Errorf("%s = %d, want %d\n%s", k, snap.Get(k), want, snap)
		}
	}
}

// TestCountersArePublishedWhole: the switch's Stats, each port's
// Counters and its link's fault-plane losses are the counters at their
// paths, whether the port was connected before or after SetTelemetry;
// a field added without a CounterVar line fails.
func TestCountersArePublishedWhole(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.New()
	sw := New(eng, Config{})
	early := sw.Connect(&stubEP{eng: eng})
	sw.SetTelemetry(reg.Scope("switch"))
	late := sw.Connect(&stubEP{eng: eng})

	bindtest.Fields(t, reg, "switch/", &sw.Stats, map[string]string{
		"Forwarded": "forwarded", "Floods": "floods", "Filtered": "filtered",
		"Reboots": "reboots", "RebootDrops": "reboot_drops",
	}, "Malformed")
	for i, p := range []*Port{early, late} {
		prefix := fmt.Sprintf("switch/port%d/", i)
		bindtest.Fields(t, reg, prefix, &p.Counters, map[string]string{
			"RxFrames": "rx/frames", "RxBytes": "rx/bytes",
			"TxFrames": "tx/frames", "TxBytes": "tx/bytes", "TailDrops": "tail_drops",
		})
		p.Link().Lost = [2]int64{11, 22}
		snap := reg.Snapshot()
		if up, down := snap.Get(prefix+"injected_loss/up"), snap.Get(prefix+"injected_loss/down"); up != 11 || down != 22 {
			t.Errorf("%sinjected_loss up=%d down=%d, want 11 22", prefix, up, down)
		}
	}
}

// TestManyPortsAllPairs: every port can reach every other port once
// MACs are learned; per-port counters reconcile with deliveries.
func TestManyPortsAllPairs(t *testing.T) {
	const n = 8
	eng, sw, eps, ports := testFabric(t, n, Config{})
	for i := 0; i < n; i++ {
		sw.Program(mac(i), ports[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				eps[i].port.Send(frameBetween(mac(i), mac(j), 128), nil)
			}
		}
	}
	eng.Run()
	for j := 0; j < n; j++ {
		if len(eps[j].got) != n-1 {
			t.Fatalf("port %d received %d frames, want %d", j, len(eps[j].got), n-1)
		}
		if ports[j].Counters.TxFrames != int64(n-1) || ports[j].Counters.RxFrames != int64(n-1) {
			t.Fatalf("port %d counters: %+v", j, ports[j].Counters)
		}
	}
	if sw.Stats.Forwarded != int64(n*(n-1)) {
		t.Fatalf("forwarded = %d, want %d", sw.Stats.Forwarded, n*(n-1))
	}
}

// TestStaticFDBFlushedByReboot pins the static-FDB × sw.reboot
// interaction the chaos scenarios rely on: Program entries live in the
// same control-plane RAM as learned ones, so a crash flushes both.
// While down the fabric drops (and counts) everything; after Restart
// the first frame to the formerly pinned MAC floods like any unknown
// unicast, and forwarding heals either by learning from reverse
// traffic or by the operator re-Programming the entry. If Crash ever
// starts preserving static entries, the scenario fault model's
// "switch reboot forces re-flood" assumption is wrong and this fails.
func TestStaticFDBFlushedByReboot(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 3, Config{})
	sw.Program(mac(1), ports[1])

	// The static entry unicasts without any learning having happened.
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 1 || len(eps[2].got) != 0 || sw.Stats.Floods != 0 {
		t.Fatalf("static unicast went wrong: got %d/%d floods=%d",
			len(eps[1].got), len(eps[2].got), sw.Stats.Floods)
	}

	// Crash flushes the FDB — the static entry and the learned mac(0)
	// source entry go together — and the plane drops while down.
	sw.Crash()
	if sw.FDBSize() != 0 {
		t.Fatalf("fdb holds %d entries across a crash; static entries must flush", sw.FDBSize())
	}
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 1 || sw.Stats.RebootDrops != 1 {
		t.Fatalf("frame crossed a rebooting switch: got=%d rebootDrops=%d",
			len(eps[1].got), sw.Stats.RebootDrops)
	}

	// After restart the pinned MAC is unknown again: the next frame
	// floods to every other port, exactly like hardware coming back.
	sw.Restart()
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 2 || len(eps[2].got) != 1 || sw.Stats.Floods != 1 {
		t.Fatalf("post-reboot frame did not flood: got %d/%d floods=%d",
			len(eps[1].got), len(eps[2].got), sw.Stats.Floods)
	}

	// Re-programming restores unicast without waiting for reverse
	// traffic — the recovery path scenario Run does not need because its
	// static entries are only installed once, before any fault window.
	sw.Program(mac(1), ports[1])
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 3 || len(eps[2].got) != 1 {
		t.Fatalf("re-programmed unicast leaked: got %d/%d", len(eps[1].got), len(eps[2].got))
	}
	if sw.Stats.Reboots != 1 {
		t.Fatalf("reboots = %d, want 1", sw.Stats.Reboots)
	}
}

// TestNestedRebootWindows: overlapping crash windows nest — the plane
// stays down until every window lifts, and only the first transition
// counts as a reboot (matching nic.Crash semantics).
func TestNestedRebootWindows(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 2, Config{})
	sw.Program(mac(1), ports[1])
	sw.Crash()
	sw.Crash()
	sw.Restart()
	if !sw.Down() {
		t.Fatal("switch came up with one of two crash windows still open")
	}
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()
	if len(eps[1].got) != 0 {
		t.Fatal("nested-down switch forwarded a frame")
	}
	sw.Restart()
	if sw.Down() || sw.Stats.Reboots != 1 {
		t.Fatalf("after final restart: down=%v reboots=%d", sw.Down(), sw.Stats.Reboots)
	}
}

func TestMalformedCounted(t *testing.T) {
	eng, sw, eps, _ := testFabric(t, 2, Config{})
	eps[0].port.Send([]byte{1, 2, 3}, nil)
	eng.Run()
	if sw.Stats.Malformed != 1 {
		t.Fatalf("malformed = %d", sw.Stats.Malformed)
	}
}

func ExampleSwitch() {
	eng := sim.NewEngine()
	sw := New(eng, Config{QueueFrames: 8})
	a, b := &stubEP{eng: eng}, &stubEP{eng: eng}
	sw.Connect(a)
	sw.Connect(b)
	a.port.Send(frameBetween(mac(0), mac(1), 64), nil)
	eng.Run()
	fmt.Println(len(b.got), sw.FDBSize())
	// Output: 1 1
}
