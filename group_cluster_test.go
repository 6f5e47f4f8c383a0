package flexdriver

import (
	"fmt"
	"math"
	"testing"
	"time"

	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// runIncastCluster builds the tie-prone workload of the lookahead table:
// three hosts, started on the same picosecond, burst UDP frames at host0
// through the ToR switch while a wire-delay fault plan holds some of them
// back by a whole number of frame times — so frames of different senders
// keep meeting each other, and the output port's own dequeue events, on the
// same picosecond, and whether an arrival or a dequeue goes first decides
// queue depths and tail drops. One more host is racked but
// sends nothing; with noops its engine runs events that do nothing, which
// moves the scheduler's window bounds and must move nothing else. It
// returns the telemetry hash and the frames host0 received.
func runIncastCluster(t *testing.T, lookahead Duration, noops bool) (string, int) {
	t.Helper()
	const senders, bursts, burst, size, period = 3, 40, 4, 256, 800 * Nanosecond
	reg := NewRegistry()
	// One frame's serialization time on a switch segment: senders emit
	// their bursts back to back, so arrivals at the switch are spaced by
	// exactly this, the output port drains at exactly this, and the fault
	// plan delays a frame by exactly twice this.
	slot := (25 * Gbps).Serialize(size + nic.EthWireOverhead)
	plan := NewFaultPlan(11, FaultsConfig{WireDelay: 0.25, WireDelayBy: 2 * slot})
	cl := NewCluster(WithTelemetry(reg), WithFaults(plan))
	// A lookahead below the true link latency is conservative-safe: windows
	// shrink (to single-instant lockstep rounds at zero) and the schedule
	// must not change.
	cl.Group().SetLookahead(lookahead)

	sink := cl.AddHost("host0")
	recv := 0
	sink.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256}).
		OnReceive = func([]byte, swdriver.RxMeta) { recv++ }
	for i := 1; i <= senders; i++ {
		h := cl.AddHost(fmt.Sprintf("host%d", i))
		port := h.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
		frame := clusterUDPFrame(h.NIC, sink.NIC, uint16(4000+i), 7777, size)
		heng := h.Engine()
		sent := 0
		var tick func()
		tick = func() {
			if sent >= bursts {
				return
			}
			for j := 0; j < burst; j++ {
				port.Send(frame)
			}
			sent++
			heng.After(period, tick)
		}
		heng.After(period, tick)
	}
	idle := cl.AddHost("idle").Engine()
	if noops {
		for at := 130 * Nanosecond; at < bursts*period; at += 130 * Nanosecond {
			idle.After(at, func() {})
		}
	}
	cl.Run()
	if pending := cl.Pending(); pending != 0 {
		t.Fatalf("cluster left %d events pending after Run", pending)
	}
	return reg.Snapshot().Hash(), recv
}

// TestClusterZeroLookahead pins that model output is a function of the
// model and not of where the scheduler's windows fell: any lookahead up to
// the true link latency — zero included, where the scheduler falls back to
// single-instant lockstep rounds — and any amount of unrelated activity on
// another shard must complete, deliver everything, and reproduce the same
// telemetry byte for byte.
func TestClusterZeroLookahead(t *testing.T) {
	ref, want := runIncastCluster(t, 500*Nanosecond, false)
	if want == 0 {
		t.Fatalf("reference run delivered nothing")
	}
	for _, la := range []Duration{0, 50 * Nanosecond, 250 * Nanosecond, 500 * Nanosecond} {
		for _, noops := range []bool{false, true} {
			if la == 500*Nanosecond && !noops {
				continue // the reference itself
			}
			t.Run(fmt.Sprintf("lookahead=%v/noops=%v", la, noops), func(t *testing.T) {
				hash, got := runIncastCluster(t, la, noops)
				if got != want {
					t.Errorf("delivered %d frames, want %d", got, want)
				}
				if hash != ref {
					t.Errorf("telemetry diverged from the 500ns run:\n got  %s\n want %s", hash, ref)
				}
			})
		}
	}
}

// TestRunUntilFarDeadline pins that RunUntil returns for a deadline at the
// largest representable instant — "forever" — and one below it, on a lone
// engine, on a two-shard group with a conduit, and on the cluster facade:
// the one pending event runs and every clock lands on the deadline. A
// deadline+1 that wraps would leave the scheduler spinning on empty rounds,
// so the call runs on its own goroutine and the test fails after 5 s rather
// than at go test's timeout.
func TestRunUntilFarDeadline(t *testing.T) {
	type world struct {
		eng      *Engine     // where the event is scheduled
		runUntil func(Time)  // the call under test
		now      func() Time // the clock it must advance
	}
	builds := []struct {
		name  string
		build func() world
	}{
		{"engine", func() world {
			e := sim.NewEngine()
			return world{e, e.RunUntil, e.Now}
		}},
		{"group", func() world {
			g := sim.NewGroup()
			a, b := g.NewEngine(), g.NewEngine()
			g.SetLookahead(100 * Nanosecond)
			sim.NewConduit(a, b, func([]byte) {})
			return world{a, g.RunUntil, g.Now}
		}},
		{"cluster", func() world {
			cl := NewCluster()
			h := cl.AddHost("a")
			cl.AddHost("b")
			return world{h.Engine(), cl.RunUntil, cl.Now}
		}},
	}
	for _, b := range builds {
		for _, deadline := range []Time{math.MaxInt64, math.MaxInt64 - 1} {
			t.Run(fmt.Sprintf("%s/%d", b.name, deadline), func(t *testing.T) {
				w := b.build()
				ran := false
				w.eng.After(Microsecond, func() { ran = true })
				done := make(chan struct{})
				go func() {
					defer close(done)
					w.runUntil(deadline)
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("RunUntil(%d) did not return within 5s", deadline)
				}
				if !ran {
					t.Errorf("the pending event did not run")
				}
				if now := w.now(); now != deadline {
					t.Errorf("Now() = %d, want %d", now, deadline)
				}
			})
		}
	}
}
