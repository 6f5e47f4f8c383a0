package sim

import "fmt"

// Group joins several Engines — one per node shard — under a conservative
// window scheduler that steps them in index order on the calling goroutine.
//
// The scheduler exploits the one physical fact that makes node shards
// independent: every cross-shard interaction crosses a link with nonzero
// latency. If L (the lookahead) is the minimum latency of any cross-shard
// link, then an event executed at time t can only influence another shard
// at t+L or later. The group therefore advances in rounds: find the
// earliest pending event time T across all shards, then let every shard run
// its own events inside its window. A cross-shard message (a Conduit send)
// goes straight into the destination engine's heap; the windows guarantee
// it lands at or after the end of the destination's current window, never
// inside it or behind it.
//
// Windows are per-shard and adaptive. Every shard but the one holding the
// global minimum T runs the classic conservative window [T, T+L). The
// owner of T may run further, to min(min2+L, T+2L), where min2 is the
// earliest pending event on any *other* shard: nothing another shard
// still has to execute reaches the owner before min2+L, and the owner's
// own output — which can seed an idle neighbor with work as early as
// T+L — boomerangs back no earlier than T+2L. That grows windows when
// cross-shard traffic is sparse; a group with no cross-shard conduits at
// all (a fully co-located model) has no influence paths and runs every
// shard straight to the next control or deadline. Shards with no events
// before their window end are skipped entirely at the cost of one heap
// peek.
//
// The schedule is a pure function of the model, and so is every tie. Each
// engine runs its heap in (time, seq) order, and an arrival's seq is built
// from the model alone — conduit ID and send index, in the lower half of
// the seq space (see Engine.push) — so at one picosecond every arrival runs
// before every locally scheduled event and arrivals among themselves run in
// (conduit ID, send index) order. None of it depends on where a window
// ended, on shard stepping order or on what other shards had pending: any
// lookahead up to the true minimum latency gives the same schedule,
// provided every cross-shard link has positive latency.
//
// Zero lookahead degenerates gracefully: windows shrink to a single
// picosecond instant and rounds crawl one timestamp at a time. Slow, but
// still correct and still deterministic. (The run-ahead extension is
// disabled at zero lookahead: a message sent at t can be answered at t,
// and the answer must not land behind a shard that ran past t. Over a
// zero-latency link a message sent at t runs at t — this round if the
// destination is stepped after the sender, the next otherwise.)
//
// During a round, shard events must not touch group state or another
// shard (the windows are only sound if every cross-shard influence rides a
// conduit); Control actions run between rounds and may touch everything.
type Group struct {
	engines   []*Engine
	conduits  []*Conduit
	lookahead Duration
	now       Time
	ids       map[string]int

	controls Heap[func()] // barrier actions, by (time, scheduling order)
	ctlSeq   uint64

	// inRound is true while shard events execute, guarding the Conduit
	// lookahead check: only sends from shard events must respect the
	// lookahead; controls and construction inject before any shard has
	// run past them.
	inRound bool

	stats GroupStats
}

// GroupStats are scheduler-observability counters, cumulative over the
// group's lifetime, and a pure function of the scenario.
type GroupStats struct {
	// Rounds counts rounds executed.
	Rounds int64
	// Merged counts cross-shard messages handed to their destination
	// engine (the name predates the barrier merge's removal).
	Merged int64
	// ShardRounds counts, per shard index, the rounds that shard was
	// active in (had events inside its window). A quiescent shard's
	// count stays put — the idle-shard skip.
	ShardRounds []int64
	// Dispatched is the sum of Engine.Dispatched over the group's shards:
	// events executed, the denominator for a per-event cost.
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

// NewEngine creates a new shard engine owned by the group. Shard indices
// follow creation order and are stable for a given construction sequence.
func (g *Group) NewEngine() *Engine {
	e := &Engine{group: g, shard: len(g.engines)}
	g.engines = append(g.engines, e)
	return e
}

// Engines returns the group's shard engines in creation order. The slice
// is the group's own; callers must not mutate it.
func (g *Group) Engines() []*Engine { return g.engines }

// SetLookahead declares the minimum latency of any cross-shard link. The
// scheduler never lets a shard run further ahead than the earliest event
// another shard could still send it. Setting it too large breaks
// causality (the Conduit send path panics when a message would arrive
// inside the sender's lookahead horizon); too small only costs barrier
// rounds.
func (g *Group) SetLookahead(d Duration) {
	if d < 0 {
		d = 0
	}
	g.lookahead = d
}

// SetWorkers does nothing: shards run in index order on the caller.
//
// Deprecated: bench/ is the only caller; ROADMAP 1(a)'s benchmark-only PR deletes it.
func (g *Group) SetWorkers(int) {}

// Now returns the group's notion of current time: the maximum of the
// barrier clock and every shard clock. It is exact at barriers (where
// controls and snapshots run) and within one window elsewhere.
func (g *Group) Now() Time {
	t := g.now
	for _, e := range g.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// NextID allocates from the group-wide identity space shared by all shard
// engines. Construction-time only.
func (g *Group) NextID(name string) int {
	g.ids[name]++
	return g.ids[name]
}

// Control schedules fn, a barrier action, to run at absolute time t with
// all shards quiesced up to t and their clocks advanced to t. Controls are
// the sharded replacement for "global" events — watchdogs that poll every
// node, recovery passes, phase changes. Controls at the same instant run
// in scheduling order, before any shard event at t. Call it at
// construction time or from within another control action — never from a
// shard event, whose shard may already have run past t.
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
	if g.now < deadline {
		g.now = deadline
	}
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
			if g.now < cAt {
				g.now = cAt
			}
			g.runControlsAt(cAt)
			continue
		}
		if !haveE {
			return
		}
		if !drain && tNext > deadline {
			return
		}

		// Per-shard windows. base bounds every shard: nothing in flight
		// or still to execute elsewhere arrives before tNext+L. The
		// shard holding tNext itself may run further: other shards'
		// pending events reach it at min2+L or later, and its *own*
		// sends — which can seed an idle neighbor with work as early as
		// tNext+L — boomerang back no sooner than tNext+2L. The tighter
		// of the two is its window. A group with no cross-shard
		// conduits has no influence paths at all, and every shard runs
		// straight to the control/deadline bound.
		base := tNext + g.lookahead
		if base <= tNext {
			// Zero lookahead: lockstep single-instant rounds.
			base = tNext + 1
		}
		ownerEnd := maxTime
		if len(g.conduits) == 0 {
			base = maxTime
		} else {
			m := min2
			if t2 := tNext + g.lookahead; t2 < m {
				m = t2
			}
			if m < maxTime-g.lookahead {
				ownerEnd = m + g.lookahead
			}
			if g.lookahead == 0 {
				// A zero-latency reply chain (send at t, answer at t)
				// must not land behind a shard that ran past t: no
				// run-ahead.
				ownerEnd = base
			}
			if ownerEnd < base {
				ownerEnd = base
			}
		}
		bound := maxTime
		if haveC && cAt < bound {
			bound = cAt
		}
		if !drain && deadline < bound-1 {
			bound = deadline + 1 // cannot wrap: deadline < maxTime-1
		}
		if base > bound {
			base = bound
		}
		if ownerEnd > bound {
			ownerEnd = bound
		}
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
		if e.events.Len() == 0 {
			continue
		}
		have = true
		t := e.events.Min().At
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
		e.AdvanceTo(t)
	}
}

// round runs, in index order, every shard with work before its window end
// — ownerEnd for shards holding the global minimum min1, base for the rest.
// An idle shard costs one heap peek. A shard's run can add to another's
// heap, but only at or after that shard's window end (a send lands a
// lookahead or more after the sender's clock: min1 or later, min2 or later
// when the destination holds min1), so it changes neither whether that
// shard holds min1 nor whether it has work inside its window: deciding each
// window as the pass reaches it is the same as deciding them all up front.
// The shard holding min1 always runs (run keeps every bound above min1), so
// every call is a round.
func (g *Group) round(base, ownerEnd, min1 Time) {
	for len(g.stats.ShardRounds) < len(g.engines) {
		g.stats.ShardRounds = append(g.stats.ShardRounds, 0)
	}
	g.inRound = true
	for _, e := range g.engines {
		if e.events.Len() == 0 {
			continue
		}
		t := e.events.Min().At
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

// dnode carries a delivery through the destination engine's event heap and
// is recycled through its conduit's pool, so steady-state crossings do not
// allocate.
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
// link seam. A send is one insert into the destination engine's heap, under
// a sequence number the conduit builds itself: among events of one
// picosecond on the destination, arrivals run first, in (conduit ID, send
// index) order (see Engine.push). Handlers run on the destination shard at
// the arrival time and read the frame only; a frame handed to Send must not
// be mutated afterwards (the destination reads it a lookahead or more on).
//
// A conduit whose endpoints are the same engine (a co-located pair, or a
// model built on one standalone engine) degenerates to a plain local
// schedule on that engine, ordered like any other local event.
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
// source shard (or from a control action). From a shard event the arrival
// must respect the group's lookahead — at least one lookahead after the
// sender's clock — which holds by construction when the lookahead is the
// minimum cross-shard link latency; the per-shard windows lean on that
// bound, so violating it panics rather than corrupting causality.
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
