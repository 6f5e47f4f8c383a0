// Package sim is the deterministic discrete-event engine under the
// FlexDriver reproduction. Model components (PCIe links, NIC pipelines,
// CPU cores, accelerator lanes) schedule callbacks on an Engine, whose
// picosecond clock fires them in (time, seq) order, so runs reproduce.
//
// An Engine is single-threaded, and one engine runs a whole model: a
// cluster builds every node and its switch on one, joins the nodes with
// Conduits, and runs barrier actions between events through a Group (see
// group.go).
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
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// call is one scheduled callback: Fn(Arg). All scheduling forms reduce to
// this shape — After wraps its closure in Arg behind a static trampoline,
// Timers pass themselves as Arg — so dispatch is one indirect call, and an
// entry stays at 40 bytes, stored by value: func values and pointers are
// pointer-shaped, so scheduling never allocates. The fields are exported
// so that profiles name the Heap code instantiated for call without a
// package path outside this one.
type call struct {
	Fn  func(any)
	Arg any
}

// runClosure is the dispatch trampoline for After's closures.
func runClosure(a any) { a.(func())() }

// Engine is a discrete-event simulation engine; create one with NewEngine.
// Its pending events are a queue ordered by (time, seq).
type Engine struct {
	now    Time
	seq    uint64 // the last local seq; see Engine.push
	nrun   uint64 // events dispatched since creation
	events queue
	bufs   *BufPool
	ids    map[string]int
	nconds uint64 // conduits built on the engine: the next one's ID
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NextID returns 1, 2, 3, ... per name: identities (MAC/IP numbering,
// device names) drawn per engine, not from a package-level counter, so two
// runs of one scenario in one process build bit-identical worlds.
// Construction-time only.
func (e *Engine) NextID(name string) int {
	if e.ids == nil {
		e.ids = make(map[string]int)
	}
	e.ids[name]++
	return e.ids[name]
}

// Bufs returns the engine's packet-buffer pool, creating it on first use;
// see BufPool for the ownership discipline.
func (e *Engine) Bufs() *BufPool {
	if e.bufs == nil {
		e.bufs = NewBufPool()
	}
	return e.bufs
}

// After schedules fn to run d after the current time. It is the only
// closure form, for set-up, control loops, recovery and experiment
// drivers; per-frame work uses AtArg/AfterArg on a pooled record.
// Scheduling in the past panics: it is always a model bug.
func (e *Engine) After(d Duration, fn func()) { e.push(e.now+d, runClosure, fn) }

// AtArg schedules fn(arg) at absolute time t: steady-state schedulers pass
// a preallocated record to a package-level function instead of capturing
// it in a fresh closure. A pointer-shaped arg does not allocate.
func (e *Engine) AtArg(t Time, fn func(any), arg any) { e.push(t, fn, arg) }

// AfterArg schedules fn(arg) to run d after the current time.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) { e.push(e.now+d, fn, arg) }

// The seq space has two classes. A locally scheduled event draws
// localSeq|counter, so local events of one picosecond run in scheduling
// order. A conduit arrival (Conduit.Send) brings its own seq, conduit ID <<
// arrivalIndexBits | the conduit's send index, with the top bit clear: at
// one picosecond every arrival runs before every local event, and arrivals
// among themselves in (conduit ID, send index) order. So a frame's place
// depends on its link and its ordinal alone, never on when another node
// happened to schedule its own work for that instant. The budget is 23
// bits of conduit ID and 40 of send index; NewConduit and Send guard both.
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

// insert queues an event with a caller-chosen seq.
func (e *Engine) insert(at Time, seq uint64, afn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.events.push(e.now, at, seq, call{afn, arg})
}

// Pending reports the number of scheduled events, in both tiers of the
// queue, stale entries of stopped or reset Timers included (they fire as
// no-ops). A quiesced fault-free datapath reads zero.
func (e *Engine) Pending() int { return e.events.Len() }

// Dispatched reports how many events the engine has executed: a function
// of the model and the seed alone, so events per frame is a cost figure
// independent of the host.
func (e *Engine) Dispatched() uint64 { return e.nrun }

// Run executes events until the queue drains.
func (e *Engine) Run() { e.runThrough(maxTime) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	e.runThrough(deadline)
	e.advanceTo(deadline)
}

// runThrough is the dispatch loop of Run, RunUntil and the group's
// controls: it executes events due at or before last (inclusive, so no
// caller computes deadline+1, which wraps at maxTime). With the near tier
// empty it pops the far tier in line, as cheaply as a bare Heap.
func (e *Engine) runThrough(last Time) {
	q := &e.events
	for {
		var ev Entry[call]
		if q.near > 0 {
			var ok bool
			if ev, ok = q.popThrough(e.now, last); !ok {
				return
			}
		} else if len(q.far.h) > 0 && q.far.h[0].At <= last {
			ev = q.far.Pop()
		} else {
			return
		}
		e.now = ev.At
		e.nrun++
		ev.V.Fn(ev.V.Arg)
	}
}

// advanceTo moves the clock forward to t without executing anything, so a
// barrier action or a RunUntil caller sees the instant it asked for
// (After and resource reservations measure from Now). Moving backwards is a no-op. The caller must have run every event
// before t: no pending event is ever behind the clock, which the queue's
// circular scan relies on.
func (e *Engine) advanceTo(t Time) { e.now = max(e.now, t) }
