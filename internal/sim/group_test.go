package sim

import (
	"fmt"
	"testing"
)

// ringWorld is a synthetic sharded model used by the scheduler tests:
// nShards engines in a ring, each forwarding jittered messages to its
// neighbor through a conduit. Every delivery appends an order-sensitive
// record to the shard's trace, so any difference in cross-shard merge
// order — or in which round an event ran — changes the combined trace.
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
	at := e.Now() + w.g.Lookahead() + w.rng[shard].Exp(200*Nanosecond)
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
	a.At(1*Microsecond, func() { fired = append(fired, "a1") })
	a.At(2*Microsecond, func() { fired = append(fired, "a2") })
	b.At(1500*Nanosecond, func() { fired = append(fired, "b") })
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
	a.At(900*Nanosecond, func() { order = append(order, "ev-a") })
	b.At(1100*Nanosecond, func() { order = append(order, "ev-b") })
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
	// After warm-up, rounds must not allocate: conduit delivery nodes
	// and the merge scratch all come from reused storage.
	w := newRingWorld(4, 9, 500*Nanosecond, 1<<30)
	w.quiet = true
	for i := range w.eng {
		w.send(i)
	}
	w.g.RunUntil(100 * Microsecond) // warm freelists and scratch
	avg := testing.AllocsPerRun(10, func() {
		w.g.RunUntil(w.g.Now() + 200*Microsecond)
	})
	if avg > 0.5 {
		t.Fatalf("steady-state run allocates %.1f/op", avg)
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
		t.Fatalf("no cross-shard messages merged; the workload is wrong")
	}
}

// TestGroupBarrierMergeAllocs pins the barrier merge at high fan-in to
// zero steady-state allocations: 16 shards all forwarding every round,
// so every barrier gathers and k-way-merges 16 dirty conduits. Before
// the per-conduit batched merge this path re-grew scratch slices every
// round.
func TestGroupBarrierMergeAllocs(t *testing.T) {
	w := newRingWorld(16, 13, 500*Nanosecond, 1<<30)
	w.quiet = true
	for i := range w.eng {
		w.send(i)
		w.send(i)
	}
	// Warm until every freelist, per-conduit run, merge-heap and event-
	// heap array has reached its high-water capacity (the first few
	// hundred microseconds still grow them).
	w.g.RunUntil(2 * Millisecond)
	avg := testing.AllocsPerRun(10, func() {
		w.g.RunUntil(w.g.Now() + 200*Microsecond)
	})
	if avg > 0.5 {
		t.Fatalf("high fan-in barrier merge allocates %.1f/op at steady state", avg)
	}
}
