package sim

import "fmt"

// Group runs a model built on one Engine together with barrier actions
// (controls): a watchdog, a recovery pass, a phase change that may touch
// every node. A control runs with every event before its instant done and
// before anything else due at that instant. A Cluster builds all its
// nodes and its switch on the group's one engine; the nodes interact only
// through Conduits, whose arrivals keep their place among same-picosecond
// events by their seq class (see Engine.push).
type Group struct {
	eng      *Engine
	controls Heap[func()] // barrier actions, by (time, scheduling order)
	ctlSeq   uint64
}

// GroupStats are the group's counters, cumulative over its lifetime.
type GroupStats struct {
	// Deprecated: always zero since a group has one engine and no rounds;
	// bench/ reads it, and ROADMAP 1(a)'s benchmark-only PR deletes it.
	Rounds int64
	// Deprecated: always zero, as Rounds.
	Merged int64
	// Deprecated: always nil, as Rounds.
	ShardRounds []int64
	// Dispatched is the engine's Dispatched count.
	Dispatched uint64
}

// Stats returns a snapshot of the group's counters.
func (g *Group) Stats() GroupStats { return GroupStats{Dispatched: g.eng.nrun} }

// maxTime is the largest representable instant, used as "no bound".
const maxTime = Time(1<<63 - 1)

// NewGroup returns a group with its engine and no controls.
func NewGroup() *Group { return &Group{eng: NewEngine()} }

// NewEngine returns the group's one engine: every caller gets the same.
func (g *Group) NewEngine() *Engine { return g.eng }

// Engines returns the group's engine as a one-element slice.
func (g *Group) Engines() []*Engine { return []*Engine{g.eng} }

// SetLookahead does nothing: one engine needs no lookahead window.
//
// Deprecated: bench/ is the only caller; ROADMAP 1(a)'s benchmark-only PR deletes it.
func (g *Group) SetLookahead(Duration) {}

// SetWorkers does nothing: the engine runs on the caller.
//
// Deprecated: bench/ is the only caller; ROADMAP 1(a)'s benchmark-only PR deletes it.
func (g *Group) SetWorkers(int) {}

// Now returns the engine's clock.
func (g *Group) Now() Time { return g.eng.now }

// Control schedules fn, a barrier action, to run at absolute time t with
// every earlier event done and the clock at t. Controls at one instant run
// in scheduling order, before any event at t. Call it at construction or
// from another control, never from an event.
func (g *Group) Control(t Time, fn func()) {
	if t < g.eng.now {
		panic(fmt.Sprintf("sim: scheduling control at %v before now %v", t, g.eng.now))
	}
	g.ctlSeq++
	g.controls.Push(t, g.ctlSeq, fn)
}

// Pending reports the engine's scheduled events (in-flight conduit
// frames among them) plus pending controls.
func (g *Group) Pending() int { return g.controls.Len() + g.eng.Pending() }

// Run executes events and controls until both drain.
func (g *Group) Run() { g.runThrough(maxTime) }

// RunUntil executes events and controls due at or before deadline, then
// advances the clock to the deadline.
func (g *Group) RunUntil(deadline Time) {
	g.runThrough(deadline)
	g.eng.advanceTo(deadline)
}

// runThrough runs everything due at or before last: the events before
// each control's instant, then every control due at it (ones a control
// schedules at the same instant included), then the rest.
func (g *Group) runThrough(last Time) {
	e := g.eng
	for g.controls.Len() > 0 && g.controls.Min().At <= last {
		t := g.controls.Min().At
		e.runThrough(t - 1)
		e.advanceTo(t)
		for g.controls.Len() > 0 && g.controls.Min().At == t {
			g.controls.Pop().V()
		}
	}
	e.runThrough(last)
}

// --- Conduits ------------------------------------------------------------

// dnode carries a delivery through the engine's queue and is recycled
// through its conduit's pool.
type dnode struct {
	Link[dnode]
	c     *Conduit
	frame []byte
}

// conduitDeliver is the static dispatch trampoline for conduit arrivals.
// The node is recycled before the handler runs, so a handler that triggers
// another crossing on the same conduit can reuse it immediately.
func conduitDeliver(a any) {
	d := a.(*dnode)
	c := d.c
	f := d.frame
	d.frame = nil
	c.nodes.Put(d)
	c.deliver(f)
}

// Conduit is a one-directional message channel between two parts of a
// model — the link seam. A send is one insert into the engine's queue in
// the arrival seq class, under the conduit's ID and its send index: among
// events of one picosecond, arrivals run first, in (conduit ID, send
// index) order (see Engine.push). Handlers run at the arrival time and
// read the frame only; a frame handed to Send must not be mutated
// afterwards.
type Conduit struct {
	eng     *Engine
	id      uint64
	deliver func(frame []byte)
	nodes   Pool[dnode, *dnode]
	sent    uint64 // sends so far: the next send index
}

// NewConduit wires a one-directional channel from src to dst, which must
// be one engine; deliver runs at each message's arrival time. The conduit
// takes the engine's next conduit ID.
func NewConduit(src, dst *Engine, deliver func(frame []byte)) *Conduit {
	if src != dst {
		panic("sim: conduit endpoints must be one engine")
	}
	if src.nconds >= 1<<arrivalIDBits {
		panic("sim: too many conduits for the arrival seq space")
	}
	c := &Conduit{eng: src, id: src.nconds, deliver: deliver}
	src.nconds++
	return c
}

// Engine returns the conduit's engine.
func (c *Conduit) Engine() *Engine { return c.eng }

// Send schedules frame to arrive at absolute time at.
func (c *Conduit) Send(at Time, frame []byte) {
	if c.sent >= 1<<arrivalIndexBits {
		panic("sim: conduit send index overflows the arrival seq space")
	}
	d := c.nodes.Get()
	d.c, d.frame = c, frame
	c.eng.insert(at, c.id<<arrivalIndexBits|c.sent, conduitDeliver, d)
	c.sent++
}
