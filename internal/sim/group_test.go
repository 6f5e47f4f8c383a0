package sim

import (
	"fmt"
	"testing"
)

// ringWorld is a synthetic multi-node model used by the group tests:
// nNodes nodes in a ring on the group's engine, each forwarding jittered
// messages to its neighbor through a conduit of latency lat. Every
// delivery appends an order-sensitive record to the node's trace, so any
// difference in the order a node ran its arrivals in changes the combined
// trace.
type ringWorld struct {
	g      *Group
	lat    Duration
	eng    []*Engine
	out    []*Conduit
	rng    []*Rand
	st     []*ringNode
	trace  [][]string
	frames [][]byte
	nsent  []int
	maxMsg int
	quiet  bool // skip trace recording (the alloc test's mode)
}

type ringNode struct {
	w    *ringWorld
	node int
}

func ringSendTramp(a any) {
	s := a.(*ringNode)
	s.w.send(s.node)
}

func newRingWorld(nNodes, seed int, lat Duration, maxMsg int) *ringWorld {
	w := &ringWorld{
		g:      NewGroup(),
		lat:    lat,
		trace:  make([][]string, nNodes),
		nsent:  make([]int, nNodes),
		maxMsg: maxMsg,
	}
	for i := 0; i < nNodes; i++ {
		w.eng = append(w.eng, w.g.NewEngine())
		w.rng = append(w.rng, NewRand(int64(seed)*1000+int64(i)))
		w.st = append(w.st, &ringNode{w: w, node: i})
		w.frames = append(w.frames, []byte{byte(i), 0})
	}
	for i := 0; i < nNodes; i++ {
		src, dst := w.eng[i], w.eng[(i+1)%nNodes]
		node := (i + 1) % nNodes
		c := NewConduit(src, dst, func(frame []byte) { w.recv(node, frame) })
		w.out = append(w.out, c)
	}
	return w
}

func (w *ringWorld) send(node int) {
	if w.nsent[node] >= w.maxMsg {
		return
	}
	w.nsent[node]++
	e := w.eng[node]
	at := e.Now() + w.lat + w.rng[node].Exp(200*Nanosecond)
	f := w.frames[node]
	if !w.quiet {
		f = []byte{byte(node), byte(w.nsent[node])}
	}
	w.out[node].Send(at, f)
}

func (w *ringWorld) recv(node int, frame []byte) {
	e := w.eng[node]
	if !w.quiet {
		w.trace[node] = append(w.trace[node],
			fmt.Sprintf("%d@%d:%d.%d", node, e.Now(), frame[0], frame[1]))
	}
	// A little local work at the same instant, then forward.
	e.AfterArg(w.rng[node].Exp(50*Nanosecond), ringSendTramp, w.st[node])
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

func runRing(nNodes, seed int, lat Duration, maxMsg int) string {
	w := newRingWorld(nNodes, seed, lat, maxMsg)
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

// TestGroupZeroLookahead runs a ring whose links have no latency at all:
// a message sent at t can be answered at t. The group must still quiesce
// (runRing panics otherwise) having delivered something.
func TestGroupZeroLookahead(t *testing.T) {
	if runRing(4, 3, 0, 50) == "" {
		t.Fatalf("zero-latency world produced no trace")
	}
}

func TestGroupRunUntil(t *testing.T) {
	g := NewGroup()
	a, b := g.NewEngine(), g.NewEngine()
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
	var order []string
	a.After(900*Nanosecond, func() { order = append(order, "ev-a") })
	b.After(1100*Nanosecond, func() { order = append(order, "ev-b") })
	g.Control(1*Microsecond, func() {
		// Every earlier event has run and the clock reads 1us.
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
	// After warm-up, a run must not allocate: a conduit send takes its
	// delivery node from the conduit's freelist and the event queue has
	// reached its high-water capacity. The second row is the high fan-in
	// case: 16 nodes, two frames each in flight (the freelists take a few
	// milliseconds to fill).
	for _, tc := range []struct {
		nodes, seed, inFlight int
		warm                  Duration
	}{
		{4, 9, 1, 100 * Microsecond},
		{16, 13, 2, 4 * Millisecond},
	} {
		w := newRingWorld(tc.nodes, tc.seed, 500*Nanosecond, 1<<30)
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
			t.Errorf("%d nodes: steady-state run allocates %.1f/op", tc.nodes, avg)
		}
	}
}

// TestGroupTieOrder pins the order of same-picosecond events: every
// conduit arrival runs before every locally scheduled event, whichever was
// scheduled first. The world is two ties at node B. At 1000 ns: A sends at
// 390 ns a frame that arrives then, and B at 400 ns schedules a local
// event for then — send first. At 2000 ns: B schedules the local event at
// 380 ns and A sends at 390 ns — the local event scheduled first. No-op events of a third
// node at the same instants must not move the order.
func TestGroupTieOrder(t *testing.T) {
	const want = "[arrival@1000 local@1000 arrival@2000 local@2000]"
	for _, third := range []bool{false, true} {
		g := NewGroup()
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
			for at := 200 * Nanosecond; at <= 2000*Nanosecond; at += 200 * Nanosecond {
				c.After(at, func() {})
			}
		}
		g.Run()
		if got := fmt.Sprint(order); got != want {
			t.Errorf("third node %v: order %s, want %s", third, got, want)
		}
	}
}
