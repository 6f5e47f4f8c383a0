// Package sim provides a deterministic discrete-event simulation engine
// used as the timing substrate for the FlexDriver reproduction.
//
// All model components (PCIe links, NIC pipelines, CPU cores, accelerator
// lanes) are plain Go objects that schedule callbacks on an Engine. Each
// engine keeps a virtual clock with picosecond resolution; events fire
// strictly in (time, insertion-order) order, so runs are reproducible.
//
// A single Engine is single-threaded. For cluster-scale models, several
// engines — one per node — can be joined into a Group (see group.go),
// which steps them in index order on the same goroutine: each shard runs
// its own heap inside a lookahead window, and a cross-shard message rides a
// Conduit straight into the destination's heap under a sequence number of
// its own, ahead of that instant's locally scheduled events.
package sim

import "fmt"

// Time is a point in virtual time, measured in picoseconds.
//
// Picoseconds keep rounding error negligible when serializing small frames
// on fast links (a 64 B frame at 100 Gbps lasts 5.12 ns = 5120 ps) while an
// int64 still spans about 106 days of simulated time.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Nanoseconds returns t expressed in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts seconds to virtual Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// call is one scheduled callback: Fn(Arg). All scheduling forms reduce to
// this one shape — After wraps its closure in Arg behind a static
// trampoline, Timers pass themselves as Arg — so dispatch is a single
// indirect call with no branching, and a heap entry stays at 40 bytes
// (copies and GC write barriers on heap moves are the hot path's main
// cost). Events are stored by value; scheduling never boxes or allocates:
// func values and pointers are pointer-shaped, so the any conversions
// below are allocation-free. The fields are exported only so that the
// name of the heap code instantiated for call, as profiles print it,
// carries no package path that would attribute it outside this package.
type call struct {
	Fn  func(any)
	Arg any
}

// runClosure is the dispatch trampoline for After's closures.
func runClosure(a any) { a.(func())() }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
//
// The pending events are a Heap ordered by (time, insertion sequence), so
// scheduling an event never allocates.
type Engine struct {
	now    Time
	seq    uint64 // tie-breaker among same-time events; see Engine.push
	nrun   uint64 // events dispatched since creation
	events Heap[call]
	bufs   *BufPool
	ids    map[string]int
	group  *Group // non-nil when the engine is one shard of a Group
	shard  int    // index within the group (creation order)
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NextID returns 1, 2, 3, ... per name, an engine-scoped identity
// allocator. Components that need unique-but-deterministic identities
// (NIC MAC/IP numbering, device names) draw from here instead of a
// package-level counter, so a fresh engine always numbers its world the
// same way — the property replay determinism rests on: two runs of the
// same scenario in one process must build bit-identical clusters.
//
// Engines that belong to a Group share one ID space, so every NIC in a
// sharded cluster still gets a unique MAC/IP no matter which shard built
// it. Identity allocation is a construction-time activity; calling NextID
// from a running shard event is not supported.
func (e *Engine) NextID(name string) int {
	if e.group != nil {
		return e.group.NextID(name)
	}
	if e.ids == nil {
		e.ids = make(map[string]int)
	}
	e.ids[name]++
	return e.ids[name]
}

// Bufs returns the engine's packet-buffer pool, creating it on first use.
// Like the engine itself the pool is single-threaded; see BufPool for the
// ownership discipline.
func (e *Engine) Bufs() *BufPool {
	if e.bufs == nil {
		e.bufs = NewBufPool()
	}
	return e.bufs
}

// After schedules fn to run d after the current time. It is the only
// closure form, for set-up, control loops, recovery and experiment drivers;
// per-frame work uses AtArg/AfterArg on a pooled record instead.
// Scheduling in the past panics: it always indicates a model bug, and
// silently reordering events would make results nondeterministic in
// confusing ways.
func (e *Engine) After(d Duration, fn func()) { e.push(e.now+d, runClosure, fn) }

// AtArg schedules fn(arg) at absolute time t. The callback takes its state
// as an explicit argument, so steady-state schedulers can pass a
// preallocated state object to a package-level function instead of
// capturing it in a fresh closure per event. Passing a pointer (or any
// pointer-shaped value) in arg does not allocate.
func (e *Engine) AtArg(t Time, fn func(any), arg any) { e.push(t, fn, arg) }

// AfterArg schedules fn(arg) to run d after the current time.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) {
	e.push(e.now+d, fn, arg)
}

// The seq space has two classes. A locally scheduled event draws
// localSeq|counter, so local events of one picosecond run in scheduling
// order. A cross-shard arrival (Conduit.Send) brings its own seq, conduit
// ID << arrivalIndexBits | the conduit's send index, with the top bit
// clear: at one picosecond every arrival runs before every local event, and
// arrivals among themselves in (conduit ID, send index) order — a function
// of the model alone, whenever and from whichever shard they were inserted.
// The budget is 23 bits of conduit ID and 40 of send index; NewConduit and
// Send guard both.
const (
	localSeq         = 1 << 63
	arrivalIndexBits = 40
	arrivalIDBits    = 63 - arrivalIndexBits
)

// push schedules a local event: the next local seq, then the shared insert.
func (e *Engine) push(at Time, afn func(any), arg any) {
	e.seq++
	e.insert(at, localSeq|e.seq, afn, arg)
}

// insert puts an event with a caller-chosen seq into the heap.
func (e *Engine) insert(at Time, seq uint64, afn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.events.Push(at, seq, call{afn, arg})
}

// Pending reports the number of scheduled events (including not-yet-expired
// entries of stopped or reset Timers, which fire as no-ops). A PCIe read
// that settled leaves nothing behind — its completion timeout is only
// scheduled once the read can no longer settle in time — so a quiesced
// fault-free datapath reads zero.
func (e *Engine) Pending() int { return e.events.Len() }

// Dispatched reports how many events the engine has executed since it was
// created. The count is a function of the model and the seed alone, so
// events per simulated frame is a cost figure that does not depend on the
// speed of the machine running the simulation.
func (e *Engine) Dispatched() uint64 { return e.nrun }

// Run executes events until the queue drains.
func (e *Engine) Run() { e.runThrough(maxTime) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	e.runThrough(deadline)
	e.AdvanceTo(deadline)
}

// runThrough is the dispatch loop: it executes events with timestamps <=
// last. Run, RunUntil and the group's window scheduler all step through it;
// taking an inclusive bound keeps every caller clear of deadline+1, which
// wraps at maxTime.
func (e *Engine) runThrough(last Time) {
	for e.events.Len() > 0 && e.events.Min().At <= last {
		ev := e.events.Pop()
		e.now = ev.At
		e.nrun++
		ev.V.Fn(ev.V.Arg)
	}
}

// AdvanceTo moves the clock forward to t without executing anything.
// Scheduling helpers (After, resource reservations) measure from Now, so a
// shard that idled through a window must still observe the global time when
// a barrier action pokes it. Moving backwards is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}
