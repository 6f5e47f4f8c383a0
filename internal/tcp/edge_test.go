// Edge-case tests for the TCP engine under the full testbed: two hosts
// on a switch, swdriver.TCPEndpoints carrying rpc-framed messages, the
// fault plan and supervision ladder live — the same harness shape as the
// scenario fuzzer's TCP sidecar, but with each case pinned to one edge
// of the transport: crash-restart mid-flight, zero-window stall and
// reopen, reordering under wire delay, and FIN teardown during drain.
package tcp_test

import (
	"testing"

	"flexdriver"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// edgeResult is what one harness run hands the case's check function.
// Delivered IDs are collected raw at the receiver and judged
// only after the run, same as the scenario sidecar's ledger.
type edgeResult struct {
	sent       int64
	ids        []int64 // delivered message IDs, delivery order
	decBad     int64   // resync skips: any byte of stream corruption
	reconnects int64
	statsA     tcp.Stats
	statsB     tcp.Stats
	stateA     tcp.State
	stateB     tcp.State
}

func (r edgeResult) delivered() int64 { return int64(len(r.ids)) }

// requireOrderedIDs holds in every case: the stream delivers each
// message at most once and in send order, across retransmits, crashes
// and reconnects alike (a reconnect flushes the dead incarnation's
// queue, so later IDs are always larger).
func requireOrderedIDs(t *testing.T, r edgeResult) {
	t.Helper()
	last := int64(-1)
	for i, id := range r.ids {
		if id <= last || id >= r.sent {
			t.Fatalf("delivery %d: id %d after %d (sent %d): stream broke ordering",
				i, id, last, r.sent)
		}
		last = id
	}
	if r.decBad != 0 {
		t.Fatalf("decoder resynced over %d bytes: stream corruption", r.decBad)
	}
}

func TestTCPEdgeCases(t *testing.T) {
	const (
		stop     = 200 * sim.Microsecond
		deadline = stop + 150*sim.Microsecond
	)
	cases := []struct {
		name    string
		faults  *flexdriver.FaultsConfig
		window  int             // receive window both ends (0 = default 8 KiB)
		gap     sim.Duration    // message send interval
		val     int             // message value bytes
		consume sim.Duration    // 0 = consume on delivery; else batch every so often
		coma    [2]sim.Duration // consumer blackout window (guarantees a long stall)
		sendFor sim.Duration    // sender stops early (0 = at stop)
		closeAt bool            // Close both ends at stop (FIN during drain)
		check   func(t *testing.T, r edgeResult)
	}{
		{
			// A node crash mid-flight loses whatever segments were in the
			// rings and on the wire; the supervisor restarts the node and
			// the RTO machinery must resend from the oldest unacked byte.
			name: "retransmit after node.crash",
			faults: &flexdriver.FaultsConfig{
				NodeCrashEvery: 60 * sim.Microsecond,
				NodeCrashFor:   6 * sim.Microsecond,
			},
			gap: 1 * sim.Microsecond,
			val: 128,
			check: func(t *testing.T, r edgeResult) {
				if r.statsA.Retransmits == 0 {
					t.Errorf("no retransmits across %d crashes", 3)
				}
				if r.delivered() == 0 {
					t.Fatalf("nothing delivered through the crash schedule")
				}
				if r.stateA != tcp.StateEstablished || r.stateB != tcp.StateEstablished {
					t.Errorf("connection not healed: %v / %v", r.stateA, r.stateB)
				}
			},
		},
		{
			// The receiver batch-consumes on a cadence, with a 30 us
			// blackout mid-run: the sender must hit the closed window,
			// hold (persist probes, not retransmit storms or a retry-
			// exceeded escalation), and resume on the reopening ack.
			// Everything still arrives exactly once.
			name:    "zero-window stall and reopen",
			window:  4096,
			gap:     400 * sim.Nanosecond,
			val:     256,
			consume: 12 * sim.Microsecond,
			coma:    [2]sim.Duration{40 * sim.Microsecond, 70 * sim.Microsecond},
			sendFor: 60 * sim.Microsecond,
			check: func(t *testing.T, r edgeResult) {
				if r.statsA.ZeroWindowStalls == 0 {
					t.Errorf("sender never hit the closed window")
				}
				if r.statsA.Probes == 0 {
					t.Errorf("no persist probes across %v stalls", r.statsA.ZeroWindowStalls)
				}
				if r.delivered() != r.sent {
					t.Errorf("delivered %d of %d after reopen", r.delivered(), r.sent)
				}
				if r.statsA.Errors != 0 {
					t.Errorf("%d retry-exceeded escalations: the probe budget misfired", r.statsA.Errors)
				}
			},
		},
		{
			// Wire delay lets later segments overtake delayed ones. The
			// go-back-N receiver holds no reassembly buffer: ahead-of-
			// stream segments are dropped and dup-acked, the sender
			// rewinds, and the stream still comes out complete, in order.
			name: "out-of-order under wire.delay",
			faults: &flexdriver.FaultsConfig{
				WireDelay: 0.15,
			},
			gap: 600 * sim.Nanosecond,
			val: 128,
			check: func(t *testing.T, r edgeResult) {
				if r.statsB.OutOfOrder == 0 {
					t.Errorf("receiver never saw a reordered segment at 15%% wire delay")
				}
				if r.statsA.Retransmits+r.statsA.FastRetransmits == 0 {
					t.Errorf("reordering caused no resends (stats %+v)", r.statsA)
				}
				if r.delivered() != r.sent {
					t.Errorf("delivered %d of %d: delay-only faults lose nothing", r.delivered(), r.sent)
				}
			},
		},
		{
			// Both ends Close at stop with the tail of the stream still
			// unacked: FINs queue behind the data, teardown completes only
			// after everything is delivered and acked.
			name:    "FIN during drain",
			gap:     800 * sim.Nanosecond,
			val:     128,
			closeAt: true,
			check: func(t *testing.T, r edgeResult) {
				if r.delivered() != r.sent {
					t.Errorf("delivered %d of %d before teardown", r.delivered(), r.sent)
				}
				if r.stateA != tcp.StateClosed || r.stateB != tcp.StateClosed {
					t.Errorf("teardown incomplete: %v / %v", r.stateA, r.stateB)
				}
				if r.statsA.FlushedBytes != 0 {
					t.Errorf("close flushed %d bytes; drain must deliver them", r.statsA.FlushedBytes)
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var opts []flexdriver.Option
			if tc.faults != nil {
				opts = append(opts, flexdriver.WithFaults(flexdriver.NewFaultPlan(1, *tc.faults)))
			}
			cl := flexdriver.NewCluster(opts...)
			ha := cl.AddHost("a")
			hb := cl.AddHost("b")
			mk := func(sp, dp uint16) tcp.Config {
				return tcp.Config{SrcPort: sp, DstPort: dp, Window: tc.window}
			}
			epA := ha.Drv.NewTCPEndpoint(swdriver.TCPConfig{Conn: mk(9100, 9101)})
			epB := hb.Drv.NewTCPEndpoint(swdriver.TCPConfig{Conn: mk(9101, 9100)})

			var r edgeResult
			var dec rpc.Decoder
			pending := 0
			epB.Conn.OnDeliver = func(p []byte) {
				for _, fr := range dec.Feed(p) {
					r.ids = append(r.ids, int64(fr.ID))
				}
				if tc.consume > 0 {
					pending += len(p)
				} else {
					epB.Conn.Consume(len(p))
				}
			}
			epB.OnReconnect = func() { dec.Reset() }
			swdriver.ConnectTCPEndpoints(epA, epB)
			if tc.consume > 0 {
				beng := hb.Engine()
				var drain func()
				drain = func() {
					inComa := beng.Now() >= tc.coma[0] && beng.Now() < tc.coma[1]
					if pending > 0 && !inComa {
						epB.Conn.Consume(pending)
						pending = 0
					}
					if beng.Now() < deadline {
						beng.After(tc.consume, drain)
					}
				}
				beng.After(tc.consume, drain)
			}

			supA := flexdriver.NewSupervisor(ha.Drv, 101)
			supB := flexdriver.NewSupervisor(hb.Drv, 202)

			aeng := ha.Engine()
			sendStop := stop
			if tc.sendFor > 0 {
				sendStop = tc.sendFor
			}
			val := make([]byte, tc.val)
			var send func()
			send = func() {
				if aeng.Now() >= sendStop {
					return
				}
				epA.Send(rpc.Frame{Op: rpc.OpPut, ID: uint64(r.sent), Val: val}.Marshal(nil))
				r.sent++
				aeng.After(tc.gap, send)
			}
			aeng.After(tc.gap, send)
			if tc.closeAt {
				aeng.After(stop, func() { epA.Conn.Close() })
				hb.Engine().After(stop, func() { epB.Conn.Close() })
			}

			recover := func() {
				supA.Kick()
				supB.Kick()
				if epA.Conn.State() == tcp.StateError || epB.Conn.State() == tcp.StateError {
					swdriver.ReconnectTCPEndpoints(epA, epB)
					r.reconnects++
				}
			}
			var watchdog func()
			watchdog = func() {
				recover()
				if cl.Now() < deadline {
					cl.Control(cl.Now()+10*sim.Microsecond, watchdog)
				}
			}
			cl.Control(10*sim.Microsecond, watchdog)

			cl.RunUntil(deadline)
			// Drain to quiescence, bounded in simulated time: a timer
			// loop that never settles fails here by name, not by hanging.
			cl.RunUntil(deadline + 50*sim.Millisecond)
			if n := cl.Pending(); n > 0 {
				t.Fatalf("liveness: %d events still pending 50 ms after the deadline", n)
			}

			r.decBad = dec.Bad
			r.statsA, r.statsB = epA.Conn.Stats, epB.Conn.Stats
			r.stateA, r.stateB = epA.Conn.State(), epB.Conn.State()
			if r.sent == 0 {
				t.Fatalf("harness sent nothing")
			}
			requireOrderedIDs(t, r)
			tc.check(t, r)
		})
	}
}
