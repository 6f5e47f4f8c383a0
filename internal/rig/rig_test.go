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

// TestOpenLoopMatchesClosures pins the sources against the hand-rolled
// senders they replaced, in workload_test.go's equivalence style: the same
// seed must yield the same send instants in the same order, because the
// fixed-seed goldens hash everything downstream of them. The reference
// closures are the pre-rig code verbatim: burst draw before the first
// gap, sends before the reschedule draw; the count-ended one (the latency
// sweeps' loop) sent its first frame synchronously and stopped after n.
// Both sides must also leave their stream at the same draw and their
// engine idle at the same instant.
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
		count  int
	}{{"poisson", false, false, 0}, {"bursty", true, false, 0}, {"fixed", false, true, 0}, {"count", false, false, 57}} {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				out  []sent
				end  sim.Time
				next sim.Duration
			}
			ref := func() (r run) {
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
				if tc.count > 0 {
					tick = func() {
						if n >= tc.count {
							return
						}
						r.out = append(r.out, sent{eng.Now(), n})
						n++
						eng.After(rng.Exp(mean), tick)
					}
					tick()
				} else {
					tick = func() {
						if eng.Now() >= stop {
							return
						}
						for b := 0; b < burst; b++ {
							r.out = append(r.out, sent{eng.Now(), n})
							n++
						}
						eng.After(next(), tick)
					}
					eng.After(next(), tick)
				}
				eng.Run()
				return run{r.out, eng.Now(), next()}
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
			send := func() {
				got = append(got, sent{eng.Now(), n})
				n++
			}
			if tc.count > 0 {
				OpenLoopN(eng, tc.count, gap, send)
			} else {
				OpenLoop(eng, gap(), stop, burst, gap, send)
			}
			eng.Run()

			if len(got) != len(ref.out) || len(ref.out) < 20 || (tc.count > 0 && len(got) != tc.count) {
				t.Fatalf("source sent %d frames, closures %d", len(got), len(ref.out))
			}
			for i := range ref.out {
				if got[i] != ref.out[i] {
					t.Fatalf("send %d: source %+v, closures %+v", i, got[i], ref.out[i])
				}
			}
			if eng.Pending() != 0 || eng.Now() != ref.end || gap() != ref.next {
				t.Fatalf("source ended at %v with %d pending, closures at %v; next draw differs: %v",
					eng.Now(), eng.Pending(), ref.end, gap() != ref.next)
			}
		})
	}
}

// TestEchoRoundTrip drives every stage once on a two-client rig: the
// ledger must come back whole, RTTs positive, and the
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
	sweep := func() { swept++; srv.Kick() }
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
	if r.Pending() != 0 || r.TailDrops() != 0 {
		t.Errorf("pending=%d taildrops=%d", r.Pending(), r.TailDrops())
	}
	if echoes[0].SendFails+echoes[1].SendFails != 0 {
		t.Error("echo reported send failures on an idle fabric")
	}
}

// TestWindowEdges phases one run for a flag reader and one for a counter
// reader: both must see the edges at warmup and warmup+window, the same
// two of the five events inside, and the run end after the drain.
func TestWindowEdges(t *testing.T) {
	for _, flag := range []bool{true, false} {
		eng := sim.NewEngine()
		measuring := false
		var fired, inside int64
		for _, at := range []sim.Time{5, 10, 15, 20, 25} {
			eng.After(at*sim.Microsecond, func() {
				fired++
				if measuring {
					inside++
				}
			})
		}
		var edges []sim.Time
		Window(eng, 8*sim.Microsecond, 10*sim.Microsecond, 3*sim.Microsecond, func(open bool) {
			edges = append(edges, eng.Now())
			if flag {
				measuring = open
			} else {
				inside = fired - inside
			}
		})
		if inside != 2 || fired != 4 || measuring || eng.Now() != 21*sim.Microsecond ||
			fmt.Sprint(edges) != fmt.Sprint([]sim.Time{8 * sim.Microsecond, 18 * sim.Microsecond}) {
			t.Fatalf("flag=%v: inside=%d fired=%d measuring=%v now=%v edges=%v", flag, inside, fired, measuring, eng.Now(), edges)
		}
	}
}

// TestPingPong drives the probe against a server that answers after a
// growing delay: the first warm round trips are dropped, exactly n are
// recorded, and a request is never sent while one is in flight.
func TestPingPong(t *testing.T) {
	eng := sim.NewEngine()
	const warm, n = 3, 7
	inFlight, maxInFlight, sends := 0, 0, 0
	pp := &PingPong{Eng: eng, Warm: warm, N: n}
	pp.Send = func() {
		sends++
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
		eng.After(sim.Duration(sends)*sim.Microsecond, func() {
			inFlight--
			pp.Reply()
		})
	}
	rtts := pp.Run()
	want := []float64{4, 5, 6, 7, 8, 9, 10} // µs: the warm-up took 1, 2 and 3
	if sends != warm+n || maxInFlight != 1 || fmt.Sprint(rtts.Values()) != fmt.Sprint(want) || eng.Pending() != 0 {
		t.Fatalf("sends=%d max in flight=%d rtts=%v pending=%d; want %d, 1, %v, 0",
			sends, maxInFlight, rtts.Values(), eng.Pending(), warm+n, want)
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
