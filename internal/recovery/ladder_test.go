package recovery

import (
	"testing"

	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// subject is a recovery target that heals after a fixed number of rung
// actions, journaling which rung ran when.
type subject struct {
	eng    *sim.Engine
	healAt int // heals once this many actions ran (<0: never)
	rungs  []int
	at     []sim.Time
}

func (s *subject) healthy() bool { return s.healAt >= 0 && len(s.rungs) >= s.healAt }

func (s *subject) act(rung int) {
	s.rungs = append(s.rungs, rung)
	s.at = append(s.at, s.eng.Now())
}

var testParams = Params{
	Rungs: []string{"a", "b", "c"},
	Delay: 2 * sim.Microsecond,
	Base:  500 * sim.Nanosecond, Max: 4 * sim.Microsecond,
}

func newTestLadder(healAt int, seed int64) (*subject, *Ladder, *telemetry.Registry) {
	eng := sim.NewEngine()
	s := &subject{eng: eng, healAt: healAt}
	l := New(eng, sim.NewRand(seed), testParams, s.healthy, s.act)
	reg := telemetry.New()
	reg.Bind(eng.Now)
	l.SetTelemetry(reg.Scope("x"))
	return s, l, reg
}

// TestLadderIdleWhenHealthy: a kick on a healthy subject opens nothing
// and schedules nothing.
func TestLadderIdleWhenHealthy(t *testing.T) {
	s, l, reg := newTestLadder(0, 1)
	l.Kick()
	if l.Active() || s.eng.Pending() != 0 || reg.Snapshot().Get("x/detects") != 0 {
		t.Fatalf("active=%v pending=%d: a healthy kick did something", l.Active(), s.eng.Pending())
	}
}

// TestLadderClimbsAndHeals: each rung gets its budget before the next,
// the first attempt waits the delay, retries back off within the jitter
// bounds, a kick during the episode is absorbed, and the healed episode
// lands in telemetry.
func TestLadderClimbsAndHeals(t *testing.T) {
	s, l, reg := newTestLadder(5, 7)
	l.Kick()
	l.Kick()
	s.eng.Run()

	want := []int{0, 0, 1, 1, 2}
	if len(s.rungs) != len(want) {
		t.Fatalf("rungs run %v, want %v", s.rungs, want)
	}
	for i := range want {
		if s.rungs[i] != want[i] {
			t.Fatalf("rungs run %v, want %v", s.rungs, want)
		}
	}
	if s.at[0] != testParams.Delay {
		t.Fatalf("first attempt at %v, want the %v delay", s.at[0], testParams.Delay)
	}
	for n := 1; n < len(s.at); n++ {
		d := testParams.Base << (n - 1)
		if d > testParams.Max {
			d = testParams.Max
		}
		if gap := s.at[n] - s.at[n-1]; gap < d*3/4 || gap > d*5/4 {
			t.Errorf("backoff before attempt %d is %v, want %v ±25%%", n+1, gap, d)
		}
	}
	if l.Active() {
		t.Fatal("episode still open after healing")
	}
	snap := reg.Snapshot()
	for path, want := range map[string]int64{"x/detects": 1, "x/episodes": 1, "x/abandoned": 0,
		"x/rung/a": 1, "x/rung/b": 1, "x/rung/c": 1} {
		if got := snap.Get(path); got != want {
			t.Errorf("%s = %d, want %d", path, got, want)
		}
	}
	if snap.Hists["x/time_to_rung"].Count != 2 || snap.Hists["x/mttr"].Count != 1 {
		t.Fatalf("time_to_rung %d, mttr %d observations; want 2 and 1",
			snap.Hists["x/time_to_rung"].Count, snap.Hists["x/mttr"].Count)
	}
	if hi := snap.Gauges["x/mttr_max"].High; hi != int64(s.eng.Now()) {
		t.Fatalf("mttr_max %d, want the episode's %d", hi, int64(s.eng.Now()))
	}
}

// TestLadderAbandons: a subject that never heals gets maxAttempts
// actions, the last rung keeping the episode, then the ladder gives up,
// counts it and lets the engine quiesce; a later kick starts afresh.
func TestLadderAbandons(t *testing.T) {
	s, l, reg := newTestLadder(-1, 3)
	l.Kick()
	// A bounded run, so a ladder that never gives up fails here rather
	// than spinning: 256 attempts at most 5 µs apart take under 1.3 ms.
	s.eng.RunUntil(2 * sim.Millisecond)
	if len(s.rungs) != maxAttempts || s.rungs[len(s.rungs)-1] != 2 {
		t.Fatalf("%d actions ending on rung %d, want %d ending on the last", len(s.rungs), s.rungs[len(s.rungs)-1], maxAttempts)
	}
	if l.Active() || s.eng.Pending() != 0 {
		t.Fatal("abandoned episode still scheduling")
	}
	if snap := reg.Snapshot(); snap.Get("x/abandoned") != 1 || snap.Get("x/episodes") != 0 {
		t.Fatalf("abandoned %d, episodes %d; want 1 and 0", snap.Get("x/abandoned"), snap.Get("x/episodes"))
	}
	l.Kick()
	s.eng.RunUntil(4 * sim.Millisecond)
	if len(s.rungs) != 2*maxAttempts || s.rungs[maxAttempts] != 0 {
		t.Fatal("a kick after abandonment did not climb from the first rung again")
	}
}

// TestLadderScheduleReplays: the same seed gives the same instants.
func TestLadderScheduleReplays(t *testing.T) {
	a, la, _ := newTestLadder(8, 11)
	b, lb, _ := newTestLadder(8, 11)
	la.Kick()
	lb.Kick()
	a.eng.Run()
	b.eng.Run()
	for i := range a.at {
		if a.at[i] != b.at[i] {
			t.Fatalf("attempt %d at %v vs %v", i, a.at[i], b.at[i])
		}
	}
}
