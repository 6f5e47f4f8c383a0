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
