package sim

import (
	"fmt"
	"testing"
)

// ringWorld is a synthetic sharded model used by the scheduler tests:
// nShards engines in a ring, each forwarding jittered messages to its
// neighbor through a conduit. Every delivery appends an order-sensitive
// record to the shard's trace, so any difference in the order a shard ran
// its arrivals in changes the combined trace.
type ringWorld struct {
	g      *Group
	eng    []*Engine
	out    []*Conduit
	rng    []*Rand
	st     []*ringShard
	trace  [][]string
	frames [][]byte
	nsent  []int
	maxMsg int
	quiet  bool // skip trace recording (the alloc test's mode)
}

type ringShard struct {
	w     *ringWorld
	shard int
}

func ringSendTramp(a any) {
	s := a.(*ringShard)
	s.w.send(s.shard)
}

func newRingWorld(nShards, seed int, lookahead Duration, maxMsg int) *ringWorld {
	w := &ringWorld{
		g:      NewGroup(),
		trace:  make([][]string, nShards),
		nsent:  make([]int, nShards),
		maxMsg: maxMsg,
	}
	w.g.SetLookahead(lookahead)
	for i := 0; i < nShards; i++ {
		w.eng = append(w.eng, w.g.NewEngine())
		w.rng = append(w.rng, NewRand(int64(seed)*1000+int64(i)))
		w.st = append(w.st, &ringShard{w: w, shard: i})
		w.frames = append(w.frames, []byte{byte(i), 0})
	}
	for i := 0; i < nShards; i++ {
		src, dst := w.eng[i], w.eng[(i+1)%nShards]
		shard := (i + 1) % nShards
		c := NewConduit(src, dst, func(frame []byte) { w.recv(shard, frame) })
		w.out = append(w.out, c)
	}
	return w
}

func (w *ringWorld) send(shard int) {
	if w.nsent[shard] >= w.maxMsg {
		return
	}
	w.nsent[shard]++
	e := w.eng[shard]
	// Arrival = now + lookahead + jitter, the conservative contract.
	at := e.Now() + w.g.lookahead + w.rng[shard].Exp(200*Nanosecond)
	f := w.frames[shard]
	if !w.quiet {
		f = []byte{byte(shard), byte(w.nsent[shard])}
	}
	w.out[shard].Send(at, f)
}

func (w *ringWorld) recv(shard int, frame []byte) {
	e := w.eng[shard]
	if !w.quiet {
		w.trace[shard] = append(w.trace[shard],
			fmt.Sprintf("%d@%d:%d.%d", shard, e.Now(), frame[0], frame[1]))
	}
	// A little local work at the same instant, then forward.
	e.AfterArg(w.rng[shard].Exp(50*Nanosecond), ringSendTramp, w.st[shard])
}

func (w *ringWorld) hash() string {
	s := ""
	for _, tr := range w.trace {
		for _, line := range tr {
			s += line + ";"
		}
		s += "|"
	}
	return s
}

func runRing(nShards, seed int, lookahead Duration, maxMsg int) string {
	w := newRingWorld(nShards, seed, lookahead, maxMsg)
	for i := range w.eng {
		w.send(i)
		w.send(i)
	}
	w.g.Run()
	if p := w.g.Pending(); p != 0 {
		panic(fmt.Sprintf("ring world did not quiesce: %d pending", p))
	}
	return w.hash()
}

func TestGroupZeroLookahead(t *testing.T) {
	// Degenerate topology: no latency slack at all. The scheduler must
	// fall back to lockstep single-instant rounds and still quiesce
	// (runRing panics otherwise) having delivered something.
	if runRing(4, 3, 0, 50) == "" {
		t.Fatalf("zero-lookahead world produced no trace")
	}
}

func TestGroupRunUntil(t *testing.T) {
	g := NewGroup()
	a, b := g.NewEngine(), g.NewEngine()
	g.SetLookahead(100 * Nanosecond)
	var fired []string
	a.After(1*Microsecond, func() { fired = append(fired, "a1") })
	a.After(2*Microsecond, func() { fired = append(fired, "a2") })
	b.After(1500*Nanosecond, func() { fired = append(fired, "b") })
	g.RunUntil(1500 * Nanosecond) // inclusive boundary
	if want := "a1,b"; fmt.Sprint(fired) != fmt.Sprint([]string{"a1", "b"}) {
		t.Fatalf("RunUntil fired %v, want %s", fired, want)
	}
	if a.Now() != 1500*Nanosecond || b.Now() != 1500*Nanosecond || g.Now() != 1500*Nanosecond {
		t.Fatalf("clocks not advanced to deadline: a=%v b=%v g=%v", a.Now(), b.Now(), g.Now())
	}
	g.Run()
	if len(fired) != 3 {
		t.Fatalf("Run after RunUntil fired %v", fired)
	}
}

func TestGroupControls(t *testing.T) {
	g := NewGroup()
	a, b := g.NewEngine(), g.NewEngine()
	g.SetLookahead(100 * Nanosecond)
	var order []string
	a.After(900*Nanosecond, func() { order = append(order, "ev-a") })
	b.After(1100*Nanosecond, func() { order = append(order, "ev-b") })
	g.Control(1*Microsecond, func() {
		// Both shards must be quiesced through 1us and advanced to it.
		if a.Now() != 1*Microsecond || b.Now() != 1*Microsecond {
			t.Errorf("control saw clocks a=%v b=%v", a.Now(), b.Now())
		}
		order = append(order, "ctl-1")
		// Re-arming from within a control is the watchdog pattern.
		g.Control(2*Microsecond, func() { order = append(order, "ctl-2") })
	})
	g.Run()
	want := []string{"ev-a", "ctl-1", "ev-b", "ctl-2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestGroupControlSameInstantFIFO(t *testing.T) {
	g := NewGroup()
	g.NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		g.Control(1*Microsecond, func() { order = append(order, i) })
	}
	g.Run()
	if fmt.Sprint(order) != fmt.Sprint([]int{0, 1, 2, 3, 4}) {
		t.Fatalf("same-instant controls ran out of order: %v", order)
	}
}

func TestConduitSameEngineDegenerate(t *testing.T) {
	e := NewEngine()
	var got []byte
	c := NewConduit(e, e, func(frame []byte) { got = frame })
	c.Send(1*Microsecond, []byte{42})
	e.Run()
	if len(got) != 1 || got[0] != 42 || e.Now() != 1*Microsecond {
		t.Fatalf("same-engine conduit: got=%v now=%v", got, e.Now())
	}
}

func TestGroupSteadyStateAllocs(t *testing.T) {
	// After warm-up, rounds must not allocate: a cross-shard send takes its
	// delivery node from the conduit's freelist and the event heaps have
	// reached their high-water capacity. The second row is the high fan-in
	// case: 16 shards, two frames each in flight, every shard forwarding
	// every round (its freelists take a few milliseconds to fill).
	for _, tc := range []struct {
		shards, seed, inFlight int
		warm                   Duration
	}{
		{4, 9, 1, 100 * Microsecond},
		{16, 13, 2, 4 * Millisecond},
	} {
		w := newRingWorld(tc.shards, tc.seed, 500*Nanosecond, 1<<30)
		w.quiet = true
		for i := range w.eng {
			for k := 0; k < tc.inFlight; k++ {
				w.send(i)
			}
		}
		w.g.RunUntil(tc.warm)
		avg := testing.AllocsPerRun(10, func() {
			w.g.RunUntil(w.g.Now() + 200*Microsecond)
		})
		if avg > 0.5 {
			t.Errorf("%d shards: steady-state run allocates %.1f/op", tc.shards, avg)
		}
	}
}

// TestGroupIdleShardSkip pins the idle-shard skip: a quiescent shard —
// racked, cabled, but with no events — must schedule zero barrier work
// while its neighbors run thousands of rounds. ShardRounds is the
// direct observable: it counts only rounds a shard was active in.
func TestGroupIdleShardSkip(t *testing.T) {
	g := NewGroup()
	g.SetLookahead(500 * Nanosecond)
	a, b := g.NewEngine(), g.NewEngine()
	idle := g.NewEngine() // racked like any node, never scheduled
	var ab, ba *Conduit
	var n int
	ab = NewConduit(a, b, func([]byte) {
		if n++; n < 2000 {
			ba.Send(b.Now()+500*Nanosecond, []byte{1})
		}
	})
	ba = NewConduit(b, a, func([]byte) {
		ab.Send(a.Now()+500*Nanosecond, []byte{0})
	})
	_ = NewConduit(a, idle, func([]byte) {}) // a cabled path that stays dark
	ab.Send(500*Nanosecond, []byte{0})
	g.Run()
	st := g.Stats()
	if st.Rounds < 100 {
		t.Fatalf("exchange ran only %d rounds; the test lost its workload", st.Rounds)
	}
	if st.ShardRounds[0] == 0 || st.ShardRounds[1] == 0 {
		t.Fatalf("active shards show no rounds: %v", st.ShardRounds)
	}
	if st.ShardRounds[2] != 0 {
		t.Fatalf("quiescent shard was scheduled %d times; the idle-shard skip is broken",
			st.ShardRounds[2])
	}
	if st.Merged == 0 {
		t.Fatalf("no cross-shard messages delivered; the workload is wrong")
	}
}

// TestGroupTieOrder pins the order of same-picosecond events on one shard:
// every arrival runs before every locally scheduled event, whichever was
// scheduled first and wherever a window ended. The world is two ties on
// shard B. At 1000 ns: A sends at 390 ns a frame that arrives then, and B
// at 400 ns schedules a local event for then — send first. At 2000 ns: B
// schedules the local event at 380 ns and A sends at 390 ns — local first.
// The lookahead, and no-op events on a third shard, move the window bounds
// around both; the order must not move.
func TestGroupTieOrder(t *testing.T) {
	const want = "[arrival@1000 local@1000 arrival@2000 local@2000]"
	for _, la := range []Duration{0, 5 * Nanosecond, 100 * Nanosecond, 500 * Nanosecond} {
		for _, third := range []bool{false, true} {
			g := NewGroup()
			g.SetLookahead(la)
			a, b := g.NewEngine(), g.NewEngine()
			var order []string
			note := func(what string) {
				order = append(order, fmt.Sprintf("%s@%d", what, b.Now()/Nanosecond))
			}
			local := func() { note("local") }
			ab := NewConduit(a, b, func([]byte) { note("arrival") })
			b.After(380*Nanosecond, func() { b.After(2000*Nanosecond-b.Now(), local) })
			a.After(390*Nanosecond, func() {
				ab.Send(1000*Nanosecond, nil)
				ab.Send(2000*Nanosecond, nil)
			})
			b.After(400*Nanosecond, func() { b.After(1000*Nanosecond-b.Now(), local) })
			if third {
				c := g.NewEngine()
				for at := 300 * Nanosecond; at <= 2000*Nanosecond; at += 300 * Nanosecond {
					c.After(at, func() {})
				}
			}
			g.Run()
			if got := fmt.Sprint(order); got != want {
				t.Errorf("lookahead %v, third shard %v: order %s, want %s", la, third, got, want)
			}
		}
	}
}
