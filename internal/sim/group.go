package sim

import "fmt"

// Group joins several Engines — one per node shard — under a conservative
// window scheduler that steps them in index order on the calling goroutine.
//
// Every cross-shard interaction crosses a link of nonzero latency; if L
// (the lookahead) is the least of them, an event at t reaches another
// shard at t+L or later. So the group runs in rounds: find the earliest
// pending time T on any shard, and let every shard run its events before
// T+L. The shard holding T may run to min(min2+L, T+2L), where min2 is the
// earliest event on any other shard: nothing else reaches it before
// min2+L, and its own sends come back no sooner than T+2L. A group with no
// conduits runs every shard straight to the next control or deadline. A
// Conduit send goes straight into the destination engine's queue, never
// inside or behind its current window.
//
// The schedule is a pure function of the model, and so is every tie: an
// arrival's seq is its conduit ID and send index (see Engine.push), so
// nothing depends on where a window ended, on stepping order, or on the
// lookahead, provided it is at most the true minimum latency. Zero
// lookahead degenerates to single-picosecond rounds without run-ahead (a
// message sent at t can be answered at t): slow, still deterministic.
//
// Shard events touch other shards only through conduits; Control actions
// run between rounds and may touch everything.
type Group struct {
	engines   []*Engine
	conduits  []*Conduit
	lookahead Duration
	now       Time
	ids       map[string]int

	controls Heap[func()] // barrier actions, by (time, scheduling order)
	ctlSeq   uint64

	// inRound is true while shard events execute: only their sends must
	// respect the lookahead.
	inRound bool

	stats GroupStats
}

// GroupStats are scheduler-observability counters, cumulative over the
// group's lifetime, and a pure function of the scenario.
type GroupStats struct {
	// Rounds counts rounds executed.
	Rounds int64
	// Merged counts cross-shard messages handed to their destination.
	Merged int64
	// ShardRounds counts, per shard index, the rounds that shard had
	// events inside its window.
	ShardRounds []int64
	// Dispatched is the sum of Engine.Dispatched over the shards.
	Dispatched uint64
}

// Stats returns a snapshot of the group's scheduler counters. Call it
// between runs, not from a running shard event.
func (g *Group) Stats() GroupStats {
	s := g.stats
	s.ShardRounds = append([]int64(nil), g.stats.ShardRounds...)
	for _, e := range g.engines {
		s.Dispatched += e.nrun
	}
	return s
}

// maxTime is the largest representable instant, used as "no bound".
const maxTime = Time(1<<63 - 1)

// NewGroup returns an empty group with lookahead 0.
func NewGroup() *Group {
	return &Group{ids: make(map[string]int)}
}

// NewEngine creates a shard engine of the group, indexed in creation order.
func (g *Group) NewEngine() *Engine {
	e := &Engine{group: g, shard: len(g.engines)}
	g.engines = append(g.engines, e)
	return e
}

// Engines returns the group's shard engines in creation order (read-only).
func (g *Group) Engines() []*Engine { return g.engines }

// SetLookahead declares the minimum latency of any cross-shard link. Too
// large breaks causality (a Conduit send inside it panics); too small only
// costs rounds.
func (g *Group) SetLookahead(d Duration) {
	g.lookahead = max(d, 0)
}

// SetWorkers does nothing: shards run in index order on the caller.
//
// Deprecated: bench/ is the only caller; ROADMAP 1(a)'s benchmark-only PR deletes it.
func (g *Group) SetWorkers(int) {}

// Now returns the latest of the barrier clock and every shard clock: exact
// at barriers, where controls and snapshots run, and within one window.
func (g *Group) Now() Time {
	t := g.now
	for _, e := range g.engines {
		t = max(t, e.now)
	}
	return t
}

// NextID allocates from the group-wide identity space shared by all shard
// engines. Construction-time only.
func (g *Group) NextID(name string) int {
	g.ids[name]++
	return g.ids[name]
}

// Control schedules fn, a barrier action (a watchdog, a recovery pass, a
// phase change), to run at absolute time t with all shards quiesced up to
// t and their clocks advanced to t. Controls at one instant run in
// scheduling order, before any shard event at t. Call it at construction
// or from another control, never from a shard event.
func (g *Group) Control(t Time, fn func()) {
	if t < g.now {
		panic(fmt.Sprintf("sim: scheduling control at %v before now %v", t, g.now))
	}
	g.ctlSeq++
	g.controls.Push(t, g.ctlSeq, fn)
}

// Pending reports the total number of scheduled events across all shards
// (in-flight conduit messages among them) and pending controls.
func (g *Group) Pending() int {
	n := g.controls.Len()
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Run executes events until every shard's queue drains and no controls
// remain.
func (g *Group) Run() {
	g.run(0, true)
	// Leave every clock at the global end time so post-run inspection
	// (telemetry snapshots, rate math) sees one consistent instant.
	g.advanceAll(g.Now())
	g.now = g.Now()
}

// RunUntil executes events with timestamps <= deadline, then advances
// every clock to the deadline.
func (g *Group) RunUntil(deadline Time) {
	g.run(deadline, false)
	g.advanceAll(deadline)
	g.now = max(g.now, deadline)
}

// run is the round loop shared by Run and RunUntil.
func (g *Group) run(deadline Time, drain bool) {
	for {
		tNext, min2, haveE := g.nextEventTimes()
		cAt, haveC := g.nextControlTime()

		if haveC && (!haveE || cAt <= tNext) {
			if !drain && cAt > deadline {
				return
			}
			// Every event before cAt is done (tNext >= cAt), so the
			// barrier action sees a fully quiesced world at cAt.
			g.advanceAll(cAt)
			g.now = max(g.now, cAt)
			g.runControlsAt(cAt)
			continue
		}
		if !haveE {
			return
		}
		if !drain && tNext > deadline {
			return
		}

		// Per-shard windows (see Group): base for every shard, ownerEnd
		// for the one holding tNext.
		base := tNext + g.lookahead
		if base <= tNext {
			// Zero lookahead: lockstep single-instant rounds.
			base = tNext + 1
		}
		ownerEnd := maxTime
		if len(g.conduits) == 0 {
			base = maxTime
		} else {
			if m := min(min2, tNext+g.lookahead); m < maxTime-g.lookahead {
				ownerEnd = m + g.lookahead
			}
			if g.lookahead == 0 {
				// A zero-latency reply chain (send at t, answer at t)
				// must not land behind a shard that ran past t: no
				// run-ahead.
				ownerEnd = base
			}
			ownerEnd = max(ownerEnd, base)
		}
		bound := maxTime
		if haveC && cAt < bound {
			bound = cAt
		}
		if !drain && deadline < bound-1 {
			bound = deadline + 1 // cannot wrap: deadline < maxTime-1
		}
		base = min(base, bound)
		ownerEnd = min(ownerEnd, bound)
		g.round(base, ownerEnd, tNext)
	}
}

// nextEventTimes scans the shards once for the two globally earliest
// pending-event times: min1 is the global minimum, min2 the earliest
// outside one shard holding min1 (maxTime when no second shard has
// events) — the bound that lets the min1 shard run ahead.
func (g *Group) nextEventTimes() (min1, min2 Time, have bool) {
	min1, min2 = maxTime, maxTime
	for _, e := range g.engines {
		t, ok := e.events.next(e.now)
		if !ok {
			continue
		}
		have = true
		if t < min1 {
			min2 = min1
			min1 = t
		} else if t < min2 {
			min2 = t
		}
	}
	return min1, min2, have
}

// nextControlTime reports the earliest pending control.
func (g *Group) nextControlTime() (Time, bool) {
	if g.controls.Len() == 0 {
		return 0, false
	}
	return g.controls.Min().At, true
}

// runControlsAt executes all controls due at instant t in scheduling
// order, including ones a control schedules at the same instant.
func (g *Group) runControlsAt(t Time) {
	for g.controls.Len() > 0 && g.controls.Min().At == t {
		g.controls.Pop().V()
	}
}

// advanceAll moves every shard clock forward to t.
func (g *Group) advanceAll(t Time) {
	for _, e := range g.engines {
		e.advanceTo(t)
	}
}

// round runs, in index order, every shard with work before its window
// end: ownerEnd for shards holding the global minimum min1, base for the
// rest. A shard's run adds to another's queue only at or after that
// shard's window end, so deciding each window as the pass reaches it is
// the same as deciding them all up front. The shard holding min1 always
// runs, so every call is a round.
func (g *Group) round(base, ownerEnd, min1 Time) {
	for len(g.stats.ShardRounds) < len(g.engines) {
		g.stats.ShardRounds = append(g.stats.ShardRounds, 0)
	}
	g.inRound = true
	for _, e := range g.engines {
		t, ok := e.events.next(e.now)
		if !ok {
			continue
		}
		end := base
		if t == min1 {
			// Ties all see min2 == min1, so ownerEnd == base and the
			// extension is exact for any number of co-minimal shards.
			end = ownerEnd
		}
		if t >= end {
			continue
		}
		g.stats.ShardRounds[e.shard]++
		// The window end itself is excluded: an arrival may still be
		// inserted exactly at end, and it must run before that instant's
		// local events, so they all belong to a later round.
		e.runThrough(end - 1)
	}
	g.inRound = false
	g.stats.Rounds++
}

// --- Conduits ------------------------------------------------------------

// dnode carries a delivery through the destination engine's queue and is
// recycled through its conduit's pool.
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

// Conduit is a one-directional cross-shard message channel — the model's
// link seam. A send is one insert into the destination engine's queue
// under a seq the conduit builds itself: among events of one picosecond,
// arrivals run first, in (conduit ID, send index) order (see Engine.push).
// Handlers run on the destination shard at the arrival time and read the
// frame only; a frame handed to Send must not be mutated afterwards. A
// conduit whose endpoints are one engine is a plain local schedule.
type Conduit struct {
	g       *Group
	id      int
	src     *Engine
	dst     *Engine
	deliver func(frame []byte)
	nodes   Pool[dnode, *dnode]
	sent    uint64 // cross-shard sends so far: the next send index
}

// NewConduit wires a one-directional channel from src to dst. deliver runs
// on dst's shard at each message's arrival time. Distinct engines must
// belong to the same group.
func NewConduit(src, dst *Engine, deliver func(frame []byte)) *Conduit {
	c := &Conduit{src: src, dst: dst, deliver: deliver}
	if src != dst {
		if src.group == nil || src.group != dst.group {
			panic("sim: conduit endpoints must share a group")
		}
		c.g = src.group
		c.id = len(c.g.conduits)
		if c.id >= 1<<arrivalIDBits {
			panic("sim: too many cross-shard conduits for the arrival seq space")
		}
		c.g.conduits = append(c.g.conduits, c)
	}
	return c
}

// Src returns the source engine.
func (c *Conduit) Src() *Engine { return c.src }

// Send schedules frame to arrive at absolute time at. Call it from the
// source shard or a control action. From a shard event the arrival must be
// at least one lookahead after the sender's clock, which holds when the
// lookahead is the minimum cross-shard latency; the windows lean on that
// bound, so violating it panics.
func (c *Conduit) Send(at Time, frame []byte) {
	if c.src == c.dst {
		c.src.push(at, conduitDeliver, c.get(frame))
		return
	}
	g := c.g
	if g.inRound && at < c.src.now+g.lookahead {
		panic(fmt.Sprintf("sim: conduit message at %v violates lookahead %v from shard time %v",
			at, g.lookahead, c.src.now))
	}
	if c.sent >= 1<<arrivalIndexBits {
		panic("sim: conduit send index overflows the arrival seq space")
	}
	c.dst.insert(at, uint64(c.id)<<arrivalIndexBits|c.sent, conduitDeliver, c.get(frame))
	c.sent++
	g.stats.Merged++
}

// get takes a delivery node for frame.
func (c *Conduit) get(frame []byte) *dnode {
	d := c.nodes.Get()
	d.c, d.frame = c, frame
	return d
}
