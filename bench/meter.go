package main

import (
	"runtime"
	"time"

	"flexdriver/internal/sim"
)

// span is one wall-clock interval recorded around a call the benchmark
// makes into the simulator. Spans live in memory and are written out
// with the rep result; Parent indexes the enclosing span (-1 at the
// root), so self time is a span's duration minus its children's. A
// duration leaves out the reference kernel's chunks run inside the span.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartS  float64 `json:"start_s"`
	DurS    float64 `json:"dur_s"`
	Count   int64   `json:"count,omitempty"` // calls folded into an aggregate span
	started time.Time
	refAt   time.Duration // kernel time accumulated when the span opened
}

// meter times one rep: the set-up section (first constructor call up to
// ready), the run section (ready up to stop) and the spans inside both.
// A workload calls begin/end around each facade call, ready() once its
// topology can Run, sliced() or tick() through the run so the reference
// kernel is interleaved with it, and stop() at quiescence; the meter
// owns every clock and MemStats read so all workloads are measured the
// same way.
type meter struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices

	// setupOnly makes ready() report false: the workload returns at once
	// and the rep keeps only the set-up time (see runRep).
	setupOnly bool

	// traced turns on per-callback generator timing (gen.on_send /
	// gen.on_receive): two clock reads per frame, so only the traced
	// pass pays it.
	traced         bool
	genSend, genRx time.Duration
	genSendN       int64
	genRxN         int64

	// refSteps is the kernel work one rep interleaves with its run
	// section; ref accumulates it.
	refSteps float64
	ref      refClock

	setupS     float64 // reference seconds
	liveHeapMB float64
	runSpan    int // index of the "run" span
	runStart   time.Time
	runWallS   float64 // wall seconds of the run section, kernel time excluded
	runS       float64 // the same in reference seconds
	before     runtime.MemStats
	mallocs    uint64
	allocBytes uint64
}

// newMeter starts a rep's clock. scale shrinks the kernel work with the
// workload below full size (the tier-1 test); above it the work stays
// that of one full-scale rep.
func newMeter(traced bool, scale float64) *meter {
	return &meter{t0: time.Now(), traced: traced, refSteps: refRepSteps * min(scale, 1)}
}

// begin opens a span under the innermost open one.
func (m *meter) begin(name string) {
	parent := -1
	if n := len(m.open); n > 0 {
		parent = m.open[n-1]
	}
	now := time.Now()
	m.spans = append(m.spans, span{Name: name, Parent: parent,
		StartS: now.Sub(m.t0).Seconds(), started: now, refAt: m.ref.d})
	m.open = append(m.open, len(m.spans)-1)
}

// end closes the innermost open span.
func (m *meter) end() {
	i := m.open[len(m.open)-1]
	m.open = m.open[:len(m.open)-1]
	m.spans[i].DurS = (time.Since(m.spans[i].started) - (m.ref.d - m.spans[i].refAt)).Seconds()
}

// in runs fn inside a span.
func (m *meter) in(name string, fn func()) {
	m.begin(name)
	fn()
	m.end()
}

// ready ends the set-up section: it records set-up time, forces a
// collection so live_heap_mb is the state the topology holds (not the
// garbage building it left), and starts the run section's clock and
// allocation counters. A workload returns at once when ready reports
// false: that build was only being timed.
func (m *meter) ready() bool {
	m.setupS = refAdjust(time.Since(m.t0))
	if m.setupOnly {
		return false
	}
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	m.liveHeapMB = float64(m.before.HeapAlloc) / (1 << 20)
	m.begin("run")
	m.runSpan = len(m.spans) - 1
	m.runStart = time.Now()
	return true
}

// runSlices is how many slices sliced() cuts a run window into: slices
// of a few milliseconds, far below the seconds over which the box's
// speed moves, far above what refilling the caches after a chunk of
// kernel work costs.
const runSlices = 240

// tick runs one of the n equal chunks of kernel work a rep interleaves
// with its run section.
func (m *meter) tick(n int) { m.ref.tick(int(m.refSteps / float64(n))) }

// sliced advances the simulation from `from` to `to` inside a span,
// n slices with a chunk of kernel work after each.
func (m *meter) sliced(name string, from, to sim.Time, n int, until func(sim.Time)) {
	m.begin(name)
	for i := 1; i <= n; i++ {
		until(from + sim.Duration(int64(to-from)*int64(i)/int64(n)))
		m.tick(runSlices)
	}
	m.end()
}

// runPhases drives a topology workload's run section: warm-up to
// `warm`, the measured window to `stop`, the drain to `drained`, then to
// quiescence; and ends the run section.
func runPhases(m *meter, warm, stop, drained sim.Time, until func(sim.Time), quiesce func()) {
	m.sliced("run.warmup", 0, warm, 1, until)
	m.sliced("run.window", warm, stop, runSlices-2, until)
	m.sliced("run.drain", stop, drained, 1, until)
	m.in("run.quiesce", quiesce)
	m.stop()
}

// stop ends the run section.
func (m *meter) stop() {
	m.runWallS = (time.Since(m.runStart) - m.ref.d).Seconds()
	m.runS = m.runWallS / m.ref.slowdown()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs = after.Mallocs - m.before.Mallocs
	m.allocBytes = after.TotalAlloc - m.before.TotalAlloc
	m.end()
	if m.traced {
		// The generator's callbacks run inside run.* spans; fold their
		// self time into two aggregate children of "run" so it can be
		// subtracted from the simulator's share.
		m.spans = append(m.spans,
			span{Name: "gen.on_send", Parent: m.runSpan, DurS: m.genSend.Seconds(), Count: m.genSendN},
			span{Name: "gen.on_receive", Parent: m.runSpan, DurS: m.genRx.Seconds(), Count: m.genRxN})
	}
}

// genEnter/genSendExit/genRxExit bracket the generator's own callbacks
// when traced; untraced they read no clock, so the end-to-end numbers
// carry none of this.
func (m *meter) genEnter() time.Time {
	if !m.traced {
		return time.Time{}
	}
	return time.Now()
}

func (m *meter) genSendExit(t time.Time) {
	if !m.traced {
		return
	}
	m.genSend += time.Since(t)
	m.genSendN++
}

func (m *meter) genRxExit(t time.Time) {
	if !m.traced {
		return
	}
	m.genRx += time.Since(t)
	m.genRxN++
}
