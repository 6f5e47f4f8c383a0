package sim

import "testing"

// tickState is the preallocated state for the steady-state alloc tests: a
// self-rescheduling event that re-arms via AfterArg instead of capturing
// anything in a fresh closure.
type tickState struct {
	e        *Engine
	n, limit int
}

func tickRun(a any) {
	s := a.(*tickState)
	s.n++
	if s.n < s.limit {
		s.e.AfterArg(Nanosecond, tickRun, s)
	}
}

// TestEngineSteadyStateZeroAlloc pins the tentpole contract: a
// steady-state scheduler that reschedules a preallocated event through
// AfterArg allocates nothing per event.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := &tickState{e: e, limit: 1000}
	avg := testing.AllocsPerRun(10, func() {
		s.n = 0
		e.AfterArg(0, tickRun, s)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state AfterArg loop: %.1f allocs per %d events, want 0", avg, s.limit)
	}
}

// tierTick alternates its next delay between the queue's two tiers: one
// nanosecond (inside the wheel's horizon) and tierFar (past it).
type tierTick struct {
	e             *Engine
	n, limit      int
	maxNear, maxF int // the deepest near and far tiers the ticks saw
}

const tierFar = Time(wheelSlots+3) << bucketShift

func tierTickRun(a any) {
	s := a.(*tierTick)
	s.n++
	q := &s.e.events
	s.maxNear, s.maxF = max(s.maxNear, q.near), max(s.maxF, q.far.Len())
	if s.n < s.limit {
		d := Nanosecond
		if s.n%2 == 1 {
			d = tierFar
		}
		s.e.AfterArg(d+Time(s.n%5), tierTickRun, s)
	}
}

// TestEngineTwoTierZeroAlloc pins the same contract across both tiers of
// the queue: 32 self-rescheduling events whose delays alternate between
// the near and the far tier allocate nothing once the slab and the far
// heap have reached their high-water capacity.
func TestEngineTwoTierZeroAlloc(t *testing.T) {
	e := NewEngine()
	ticks := make([]tierTick, 32)
	run := func() {
		for i := range ticks {
			ticks[i] = tierTick{e: e, limit: 200}
			e.AfterArg(Time(i), tierTickRun, &ticks[i])
		}
		e.Run()
	}
	run() // warm: build the wheel, grow the slab and the far heap
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("two-tier AfterArg loop: %.1f allocs per %d events, want 0", avg, 32*200)
	}
	if s := ticks[0]; s.maxNear == 0 || s.maxF < wheelFrom {
		t.Fatalf("deepest tiers seen: %d near, %d far; want both tiers in use", s.maxNear, s.maxF)
	}
}

// timerTick re-arms a reusable Timer from its own expiry callback.
type timerTick struct {
	t        *Timer
	n, limit int
}

func timerTickRun(a any) {
	s := a.(*timerTick)
	s.n++
	if s.n < s.limit {
		s.t.Reset(Nanosecond)
	}
}

// TestTimerSteadyStateZeroAlloc pins the reusable-timer contract: Reset
// and expiry of a preallocated Timer allocate nothing per firing.
func TestTimerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := &timerTick{limit: 1000}
	s.t = e.NewTimer(timerTickRun, s)
	avg := testing.AllocsPerRun(10, func() {
		s.n = 0
		s.t.Reset(Nanosecond)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Timer Reset/expire loop: %.1f allocs per %d firings, want 0", avg, s.limit)
	}
}

// TestBufPoolRoundTripZeroAlloc pins the pool contract: once a size class
// is warm, a Get/Put round trip allocates nothing.
func TestBufPoolRoundTripZeroAlloc(t *testing.T) {
	p := NewBufPool()
	p.Put(p.Get(512)) // warm the class
	avg := testing.AllocsPerRun(100, func() {
		b := p.Get(512)
		p.Put(b)
	})
	if avg != 0 {
		t.Fatalf("warm Get/Put round trip: %.1f allocs, want 0", avg)
	}
	if p.misses != 1 {
		t.Fatalf("misses = %d after one cold Get, want 1", p.misses)
	}
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after balanced round trips, want 0", got)
	}
}

// TestBufPoolTakesNextClassUp: a Get whose class is empty takes a buffer
// of the next class up, so an engine that receives 256 B frames and sends
// 128 B ones recycles instead of allocating; two classes up it allocates,
// so a descriptor never pins a frame-sized buffer.
func TestBufPoolTakesNextClassUp(t *testing.T) {
	p := NewBufPool()
	p.Put(make([]byte, 0, 256))
	if b := p.Get(100); cap(b) != 256 || len(b) != 100 || p.misses != 0 {
		t.Fatalf("Get(100) over a spare 256 B buffer: len %d cap %d, %d misses; want 100, 256, 0", len(b), cap(b), p.misses)
	}
	p.Put(make([]byte, 0, 256))
	if b := p.Get(64); cap(b) != 64 || p.misses != 1 {
		t.Fatalf("Get(64) with only a 256 B buffer spare: cap %d, %d misses; want a new 64 B buffer", cap(b), p.misses)
	}
}
