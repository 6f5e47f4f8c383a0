package flexdriver

import (
	"fmt"
	"math"
	"testing"
	"time"

	"flexdriver/internal/sim"
)

// TestRunUntilFarDeadline pins that RunUntil returns for a deadline at the
// largest representable instant — "forever" — and one below it, on a lone
// engine, on a group with a conduit and a control, and on the cluster
// facade: the one pending event runs and the clock lands on the deadline.
// A deadline+1 that wraps would leave the loop spinning, so the call runs on its own goroutine and the test fails after 5 s rather
// than at go test's timeout.
func TestRunUntilFarDeadline(t *testing.T) {
	type world struct {
		eng      *Engine     // where the event is scheduled
		runUntil func(Time)  // the call under test
		now      func() Time // the clock it must advance
	}
	builds := []struct {
		name  string
		build func() world
	}{
		{"engine", func() world {
			e := sim.NewEngine()
			return world{e, e.RunUntil, e.Now}
		}},
		{"group", func() world {
			g := sim.NewGroup()
			a := g.NewEngine()
			sim.NewConduit(a, a, func([]byte) {})
			g.Control(Microsecond, func() {})
			return world{a, g.RunUntil, g.Now}
		}},
		{"cluster", func() world {
			cl := NewCluster()
			h := cl.AddHost("a")
			cl.AddHost("b")
			return world{h.Engine(), cl.RunUntil, cl.Now}
		}},
	}
	for _, b := range builds {
		for _, deadline := range []Time{math.MaxInt64, math.MaxInt64 - 1} {
			t.Run(fmt.Sprintf("%s/%d", b.name, deadline), func(t *testing.T) {
				w := b.build()
				ran := false
				w.eng.After(Microsecond, func() { ran = true })
				done := make(chan struct{})
				go func() {
					defer close(done)
					w.runUntil(deadline)
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("RunUntil(%d) did not return within 5s", deadline)
				}
				if !ran {
					t.Errorf("the pending event did not run")
				}
				if now := w.now(); now != deadline {
					t.Errorf("Now() = %d, want %d", now, deadline)
				}
			})
		}
	}
}
