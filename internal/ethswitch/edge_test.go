package ethswitch

import (
	"testing"

	"flexdriver/internal/netpkt"
)

// TestMACRelearnAfterMove covers the FDB-collision path: a station that
// answers from a new port (VM migration, cable move) must steal its MAC
// entry, and subsequent traffic must follow the new port — no stale
// unicast to the old one, no flood.
func TestMACRelearnAfterMove(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 3, Config{})

	// Station mac(0) first appears on port 0 (the learning frame floods
	// to ports 1 and 2; all later checks are on deltas).
	eps[0].port.Send(frameBetween(mac(0), mac(9), 100), nil)
	eng.Run()
	if got := sw.fdb[mac(0)]; got != ports[0] {
		t.Fatalf("mac learned on port %v, want port 0", got)
	}

	// Traffic to it unicasts to port 0.
	got0, got2 := len(eps[0].got), len(eps[2].got)
	eps[1].port.Send(frameBetween(mac(1), mac(0), 100), nil)
	eng.Run()
	if len(eps[0].got)-got0 != 1 || len(eps[2].got)-got2 != 0 {
		t.Fatalf("pre-move unicast delivered %d/%d to ports 0/2, want 1/0",
			len(eps[0].got)-got0, len(eps[2].got)-got2)
	}

	// The station moves: same source MAC now transmits from port 2. The
	// FDB entry must be overwritten in place (a collision relearn, not a
	// second entry).
	eps[2].port.Send(frameBetween(mac(0), mac(9), 100), nil)
	eng.Run()
	if got := sw.fdb[mac(0)]; got != ports[2] {
		t.Fatalf("after move, mac still learned on %v, want port 2", got)
	}
	fdbBefore := sw.FDBSize()

	// Post-move traffic follows the new port and only the new port.
	got0, got2 = len(eps[0].got), len(eps[2].got)
	eps[1].port.Send(frameBetween(mac(1), mac(0), 100), nil)
	eng.Run()
	if len(eps[0].got)-got0 != 0 {
		t.Fatalf("stale delivery to the old port: %d new frames", len(eps[0].got)-got0)
	}
	if len(eps[2].got)-got2 != 1 {
		t.Fatalf("post-move unicast delivered %d new frames to port 2, want 1", len(eps[2].got)-got2)
	}
	if sw.FDBSize() != fdbBefore {
		t.Fatalf("relearn grew the FDB from %d to %d entries; a move must overwrite", fdbBefore, sw.FDBSize())
	}
	if sw.Stats.Floods != 2 { // only the two learning frames to mac(9) flooded
		t.Fatalf("got %d floods, want 2 (relearned traffic must unicast)", sw.Stats.Floods)
	}
}

// TestFloodIntoFullOutputQueues drives broadcast floods from three ports
// at once: the fan-in overloads every output queue, and each flood
// replica must be tail-dropped independently, per port, with exact
// accounting (offered == delivered + dropped on every port).
func TestFloodIntoFullOutputQueues(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 4, Config{QueueFrames: 2})
	bcast := netpkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

	// Ports 0-2 each broadcast back-to-back; every frame replicates to
	// the 3 other ports, so port 3 is offered 3× line rate and ports 0-2
	// are offered 2× each — all into two-frame queues.
	const burst = 50
	for i := 0; i < burst; i++ {
		for s := 0; s < 3; s++ {
			eps[s].port.Send(frameBetween(mac(s), bcast, 500), nil)
		}
	}
	eng.Run()

	if sw.Stats.Floods != 3*burst {
		t.Fatalf("got %d floods, want %d", sw.Stats.Floods, 3*burst)
	}
	for i, p := range ports {
		offered := int64(2 * burst) // floods from the two other senders
		if i == 3 {
			offered = 3 * burst // the silent port hears everyone
		}
		if p.Counters.TailDrops == 0 {
			t.Fatalf("port %d: flood into a full queue recorded no tail drops", i)
		}
		if got := int64(len(eps[i].got)); got+p.Counters.TailDrops != offered {
			t.Fatalf("port %d: delivered %d + dropped %d != offered %d",
				i, got, p.Counters.TailDrops, offered)
		}
		if p.queued != 0 {
			t.Fatalf("port %d: queue not drained after run (depth %d)", i, p.queued)
		}
	}
	// No sender may hear its own broadcasts back (no hairpin on floods):
	// every frame a sender received must carry another sender's source MAC.
	for s := 0; s < 3; s++ {
		for _, f := range eps[s].got {
			if eh, _, err := netpkt.ParseEth(f); err != nil || eh.Src == mac(s) {
				t.Fatalf("port %d: flood hairpinned its own frame back (src %v)", s, eh.Src)
			}
		}
	}
}

// TestHairpinFilterWithDuplicatedFrames aims a duplicating segment at the
// hairpin filter: a frame whose learned destination is its own ingress
// port is injected twice by the link-level Dup fault, and both copies
// must be filtered — duplication must not leak a frame past the filter
// or corrupt the per-port accounting.
func TestHairpinFilterWithDuplicatedFrames(t *testing.T) {
	eng, sw, eps, ports := testFabric(t, 2, Config{})

	// Learn both stations on port 0 (a hub or nested switch hangs off it:
	// two MACs, one port). The learning frames flood to port 1; snapshot
	// the counters so the hairpin phase is judged on deltas.
	eps[0].port.Send(frameBetween(mac(0), mac(9), 100), nil)
	eps[0].port.Send(frameBetween(mac(1), mac(9), 100), nil)
	eng.Run()
	filtered0 := sw.Stats.Filtered
	got0, got1 := len(eps[0].got), len(eps[1].got)

	// Every NIC-to-switch frame on port 0 now arrives in duplicate.
	ports[0].Link().Dup = func(dir int, _ []byte) bool { return dir == 0 }

	// mac(0) talks to mac(1): learned on the same port, so the switch
	// must filter — both the original and the injected duplicate.
	eps[0].port.Send(frameBetween(mac(0), mac(1), 100), nil)
	eng.Run()

	if got := sw.Stats.Filtered - filtered0; got != 2 {
		t.Fatalf("filtered %d hairpin copies, want 2 (original + duplicate)", got)
	}
	if len(eps[0].got) != got0 || len(eps[1].got) != got1 {
		t.Fatalf("hairpin leaked: %d/%d new frames delivered to ports 0/1, want 0/0",
			len(eps[0].got)-got0, len(eps[1].got)-got1)
	}
	if got := ports[0].Link().Delivered[0]; got != 4 {
		// 2 learning frames + original + duplicate, all fully received.
		t.Fatalf("segment delivered %d frames NIC-to-switch, want 4", got)
	}
}
