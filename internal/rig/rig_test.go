package rig

import (
	"fmt"
	"testing"

	"flexdriver"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

func TestLedger(t *testing.T) {
	var l Ledger
	for i := 0; i < 5; i++ {
		if seq := l.Issue(sim.Time(100 * i)); seq != int64(i) {
			t.Fatalf("Issue #%d returned ordinal %d", i, seq)
		}
	}
	// 0 arrives once, 1 never, 2 three times, 3 and 4 once.
	for _, seq := range []int64{0, 2, 2, 3, 2, 4} {
		at, ok := l.Deliver(seq)
		if !ok || at != sim.Time(100*seq) {
			t.Fatalf("Deliver(%d) = %v, %v; want issue time %d", seq, at, ok, 100*seq)
		}
	}
	// Off the wire an ordinal is just 8 bytes: both bounds must hold.
	for _, seq := range []int64{-1, -1 << 62, 5, 1 << 40} {
		if _, ok := l.Deliver(seq); ok {
			t.Fatalf("Deliver(%d) accepted an ordinal never issued", seq)
		}
	}
	if lost, dups := l.Tally(); lost != 1 || dups != 2 || l.Ghosts != 4 || l.Sent() != 5 {
		t.Fatalf("lost=%d dups=%d ghosts=%d sent=%d, want 1 2 4 5", lost, dups, l.Ghosts, l.Sent())
	}
}

func TestStampRoundTrip(t *testing.T) {
	f := make([]byte, 20)
	for _, seq := range []int64{0, 1, 255, 256, 1<<40 + 7, -1} {
		Stamp(f, 5, seq)
		if got := Unstamp(f, 5); got != seq {
			t.Fatalf("Unstamp(Stamp(%d)) = %d", seq, got)
		}
	}
	if f[4] != 0 || f[13] != 0 {
		t.Fatal("Stamp wrote outside its 8 bytes")
	}
}

func TestSplit(t *testing.T) {
	for _, tc := range [][2]int{{1, 1}, {7, 3}, {8, 4}, {100000, 16}, {5, 5}, {2048, 64}} {
		n, hosts := tc[0], tc[1]
		first, lo, hi := 0, n, 0
		for _, sp := range Split(n, hosts) {
			if sp.First != first {
				t.Fatalf("Split(%d,%d): span starts at %d, previous ended at %d", n, hosts, sp.First, first)
			}
			first += sp.N
			lo, hi = min(lo, sp.N), max(hi, sp.N)
		}
		if first != n || hi-lo > 1 {
			t.Fatalf("Split(%d,%d) sums to %d with shares in [%d,%d]", n, hosts, first, lo, hi)
		}
	}
}

// TestOpenLoopMatchesClosures pins the source against the hand-rolled
// senders it replaced, in workload_test.go's equivalence style: the same
// seed must yield the same send instants in the same order, because the
// fixed-seed goldens hash everything downstream of them. The reference
// closures are the pre-rig code verbatim: burst draw before the first
// gap, sends before the reschedule draw.
func TestOpenLoopMatchesClosures(t *testing.T) {
	const stop = 40 * sim.Microsecond
	mean := 700 * sim.Nanosecond
	type sent struct {
		at sim.Time
		n  int
	}
	for _, tc := range []struct {
		name   string
		bursty bool
		fixed  bool
	}{{"poisson", false, false}, {"bursty", true, false}, {"fixed", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			ref := func() (out []sent) {
				eng := sim.NewEngine()
				rng := sim.NewRand(99)
				burst := 1
				if tc.bursty {
					burst = 8 + rng.Intn(25)
				}
				gap := mean * sim.Duration(burst)
				next := func() sim.Duration {
					if tc.fixed {
						return mean
					}
					return rng.Exp(gap)
				}
				n := 0
				var tick func()
				tick = func() {
					if eng.Now() >= stop {
						return
					}
					for b := 0; b < burst; b++ {
						out = append(out, sent{eng.Now(), n})
						n++
					}
					eng.After(next(), tick)
				}
				eng.After(next(), tick)
				eng.Run()
				return out
			}()

			var got []sent
			eng := sim.NewEngine()
			rng := sim.NewRand(99)
			burst := 1
			if tc.bursty {
				burst = 8 + rng.Intn(25)
			}
			gap := Poisson(rng, mean*sim.Duration(burst))
			if tc.fixed {
				gap = Every(mean)
			}
			n := 0
			OpenLoop(eng, gap(), stop, burst, gap, func() {
				got = append(got, sent{eng.Now(), n})
				n++
			})
			eng.Run()

			if len(got) != len(ref) || len(ref) < 20 {
				t.Fatalf("source sent %d frames, closures %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("send %d: source %+v, closures %+v", i, got[i], ref[i])
				}
			}
			if eng.Pending() != 0 {
				t.Fatal("source left events behind after its stop line")
			}
		})
	}
}

// TestEchoRoundTrip drives every stage once on a two-client rig: the
// ledger must come back whole, RTTs positive, PCIe reconciled, and the
// server — which Steer scopes to its own address whatever rule it is
// given — must leave a foreign flood unanswered.
func TestEchoRoundTrip(t *testing.T) {
	const off = 42
	r := New()
	var echoes []*Echo
	srv := r.AddServer("server", 2, func(f *flexdriver.FLD) { echoes = append(echoes, InstallEcho(f)) })
	srv.Steer(flexdriver.Rule{})
	stop := 30 * sim.Microsecond
	var cs []*Client
	rtts := 0
	for i := 0; i < 2; i++ {
		c := r.AddClient(fmt.Sprintf("client%d", i), off)
		for fi := 0; fi < 4; fi++ {
			c.Flows = append(c.Flows, UDPFrame(c.Host.NIC, srv.NIC, uint16(4000+fi), 7777, 128+64*fi))
		}
		c.Port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			if rtt, ok := c.Deliver(fr); ok && rtt > 0 {
				rtts++
			}
		}
		OpenLoop(c.Host.Engine(), 0, stop, 1, Every(500*sim.Nanosecond), c.Send)
		cs = append(cs, c)
	}
	// client1 sends a frame to a silent bystander at t=0, before any FDB
	// entry exists: it floods, the server sees a copy and must not answer.
	stray := UDPFrame(cs[1].Host.NIC, r.AddHost("bystander").NIC, 9, 9, 128)
	cs[1].Host.Engine().After(0, func() { cs[1].Port.Send(stray) })
	swept := 0
	sweep := func() { swept++; srv.Recover() }
	r.Supervise(5*sim.Microsecond, 10*sim.Microsecond, stop, sweep)
	r.Quiesce(stop+20*sim.Microsecond, sweep)

	for i, c := range cs {
		lost, dups := c.Tally()
		if c.Sent() < 50 || lost != 0 || dups != 0 || c.Ghosts != 0 || c.Short != 0 {
			t.Errorf("client%d: sent=%d lost=%d dups=%d ghosts=%d short=%d", i, c.Sent(), lost, dups, c.Ghosts, c.Short)
		}
	}
	if want := int(cs[0].Sent() + cs[1].Sent()); rtts != want {
		t.Errorf("%d replies carried a positive RTT, want %d", rtts, want)
	}
	if swept != 5 { // 5, 15, 25, 35us ticks + Quiesce's final pass
		t.Errorf("sweep ran %d times, want 5", swept)
	}
	var rx int64
	for _, rt := range srv.RTs {
		rx += rt.FLD().Stats.RxPackets
	}
	if rx != cs[0].Sent()+cs[1].Sent() {
		t.Errorf("server cores saw %d frames, clients sent %d: the flooded stray was steered in", rx, cs[0].Sent()+cs[1].Sent())
	}
	if m := r.Reconcile(r.Telemetry().Snapshot()); m != 0 || r.Pending() != 0 || r.TailDrops() != 0 {
		t.Errorf("pcie mismatches=%d pending=%d taildrops=%d", m, r.Pending(), r.TailDrops())
	}
	if echoes[0].SendFails+echoes[1].SendFails != 0 {
		t.Error("echo reported send failures on an idle fabric")
	}
}

func TestWindowFlag(t *testing.T) {
	eng := sim.NewEngine()
	measuring := false
	var seen []bool
	for _, at := range []sim.Time{5, 10, 15, 20, 25} {
		eng.After(at*sim.Microsecond, func() { seen = append(seen, measuring) })
	}
	Window(eng, 8*sim.Microsecond, 10*sim.Microsecond, 3*sim.Microsecond, &measuring)
	if fmt.Sprint(seen) != "[false true true false]" || measuring || eng.Now() != 21*sim.Microsecond {
		t.Fatalf("seen=%v measuring=%v now=%v", seen, measuring, eng.Now())
	}
}

func TestMaxCrashFor(t *testing.T) {
	cfg, err := flexdriver.ParseFaultSpec("fld.reset.every=50us,fld.reset.for=4us,sw.reboot.every=90us,sw.reboot.for=9us")
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxCrashFor(cfg); got != 9*sim.Microsecond {
		t.Fatalf("MaxCrashFor = %v, want 9us", got)
	}
}
