package arq

import (
	"fmt"
	"slices"
	"testing"

	"flexdriver/internal/sim"
)

const testRTO = 10 * sim.Microsecond

// harness is a Sender of labels on a bare engine whose timer records its
// expiries instead of acting on them.
type harness struct {
	eng   *sim.Engine
	s     Sender[string]
	fires []sim.Time
}

func newHarness() *harness {
	h := &harness{eng: sim.NewEngine()}
	h.s.Init(h.eng.NewTimer(func(any) { h.fires = append(h.fires, h.eng.Now()) }, nil), testRTO)
	return h
}

func all(uint32, *string) bool { return true }

// sendAll pumps every unit.
func (h *harness) sendAll() { h.s.Pump(all, func(uint32, *string) {}) }

// TestAckBounds holds Ack to the cumulative rule across the 2³² wrap: it
// takes only an ack that moves Una forward without passing Nxt, dequeues
// exactly the units wholly before it, and leaves the timer armed when it
// refuses.
func TestAckBounds(t *testing.T) {
	h := newHarness()
	h.s.Una, h.s.Nxt = ^uint32(0)-5, ^uint32(0)-5
	for i := 0; i < 4; i++ {
		h.s.Push(4, fmt.Sprint("u", i)) // units at -6, -2, +2, +6 (mod 2³²)
	}
	if h.s.Nxt != 10 {
		t.Fatalf("Nxt = %d after 16 sequence numbers from 2³²-6, want 10", h.s.Nxt)
	}
	h.sendAll()
	h.s.Arm()
	una := h.s.Una
	for _, to := range []uint32{una, una - 1, una - 1<<31, h.s.Nxt + 1, h.s.Nxt + 1<<30} {
		if h.s.Ack(to, nil) {
			t.Fatalf("Ack(%d) accepted with Una=%d Nxt=%d", to, una, h.s.Nxt)
		}
		if h.s.Una != una || h.s.q.Len() != 4 || !h.s.rto.Armed() {
			t.Fatalf("refused Ack(%d) changed state: Una %d, %d queued, timer armed %v",
				to, h.s.Una, h.s.q.Len(), h.s.rto.Armed())
		}
	}
	var done []string
	mark := func(v *string) { done = append(done, *v) }
	// Mid-unit: Una moves, the unit it splits stays queued.
	if !h.s.Ack(una+5, mark) || h.s.Una != una+5 || !slices.Equal(done, []string{"u0"}) {
		t.Fatalf("Ack into the second unit: Una %d, completed %v; want Una %d and u0", h.s.Una, done, una+5)
	}
	// Across the wrap, up to and including Nxt.
	if !h.s.Ack(6, mark) || !slices.Equal(done, []string{"u0", "u1", "u2"}) {
		t.Fatalf("Ack across 2³²: completed %v, want u0 u1 u2", done)
	}
	if !h.s.Ack(h.s.Nxt, mark) || h.s.q.Len() != 0 || h.s.Una != h.s.Nxt || len(done) != 4 {
		t.Fatalf("Ack(Nxt): %d queued, Una %d, Nxt %d, completed %v", h.s.q.Len(), h.s.Una, h.s.Nxt, done)
	}
}

// TestTimeoutProgressRule: a timeout spends a retry only when Una has not
// moved since Arm and the head was sent; the budget allows exactly budget
// resends; progress refills it.
func TestTimeoutProgressRule(t *testing.T) {
	h := newHarness()
	h.s.Push(1, "a")
	h.s.Push(1, "b")
	h.s.Arm()
	if v := h.s.Timeout(2); v != Rearm || h.s.retries != 0 {
		t.Fatalf("timeout with the head unsent: %v after %d retries, want Rearm and none spent", v, h.s.retries)
	}
	h.sendAll()
	h.s.Arm()
	h.eng.Run()
	for i := 1; i <= 2; i++ {
		if v := h.s.Timeout(2); v != Resend {
			t.Fatalf("no-progress timeout %d of a budget of 2: %v, want Resend", i, v)
		}
	}
	if v := h.s.Timeout(2); v != Exhausted {
		t.Fatalf("third no-progress timeout of a budget of 2: %v, want Exhausted", v)
	}
	h.s.retries = 1
	h.s.Ack(1, nil)
	if h.s.retries != 0 {
		t.Fatalf("progress left %d retries spent", h.s.retries)
	}
	h.s.Arm()
	h.s.Ack(2, nil)
	h.s.Push(1, "c")
	h.sendAll()
	if v := h.s.Timeout(2); v != Rearm {
		t.Fatalf("timeout after Una moved since Arm: %v, want Rearm", v)
	}
	h.s.Flush(nil)
	if v := h.s.Timeout(0); v != Rearm {
		t.Fatalf("timeout on an empty queue: %v, want Rearm", v)
	}
}

// TestArmNeverPushesOutADeadline: a second Arm while the timer runs keeps
// the first deadline, and an empty queue arms nothing.
func TestArmNeverPushesOutADeadline(t *testing.T) {
	h := newHarness()
	h.s.Arm()
	if h.s.rto.Armed() {
		t.Fatal("Arm on an empty queue armed the timer")
	}
	h.s.Push(1, "a")
	h.s.Arm()
	h.eng.RunUntil(sim.Time(testRTO / 2))
	h.s.Push(1, "b")
	h.s.Arm()
	h.eng.Run()
	if !slices.Equal(h.fires, []sim.Time{sim.Time(testRTO)}) {
		t.Fatalf("timer fired at %v, want once at %v", h.fires, sim.Time(testRTO))
	}
}

// TestPumpAndResend: Pump emits unsent units in order until fits refuses,
// returns the one refused and arms nothing; Resend walks only the sent
// prefix.
func TestPumpAndResend(t *testing.T) {
	h := newHarness()
	for _, l := range []string{"a", "b", "c", "d"} {
		h.s.Push(10, l)
	}
	below := func(limit uint32) func(uint32, *string) bool {
		return func(seq uint32, _ *string) bool { return seq < limit }
	}
	var out []string
	emit := func(_ uint32, v *string) { out = append(out, *v) }
	seq, v := h.s.Pump(below(20), emit)
	if !slices.Equal(out, []string{"a", "b"}) || v == nil || *v != "c" || seq != 20 || h.s.rto.Armed() {
		t.Fatalf("Pump under a 20-wide window: emitted %v, refused %d, timer armed %v", out, seq, h.s.rto.Armed())
	}
	if s, v := h.s.Unsent(); v == nil || *v != "c" || s != 20 {
		t.Fatalf("Unsent = %d %v, want c at 20", s, v)
	}
	out = nil
	h.s.Resend(all, emit)
	if !slices.Equal(out, []string{"a", "b"}) {
		t.Fatalf("Resend emitted %v, want the sent prefix a b", out)
	}
	out = nil
	h.s.Resend(below(10), emit)
	if !slices.Equal(out, []string{"a"}) {
		t.Fatalf("Resend under a 10-wide window emitted %v, want a", out)
	}
	if _, v := h.s.Pump(all, func(uint32, *string) {}); v != nil {
		t.Fatalf("Pump with room for everything refused %q", *v)
	}
}

// TestPumpStartsAtFirstUnsent: the sent units are a queue prefix whose
// length the sender keeps, so Pump and Unsent start at the first unsent
// unit. An Ack that pops sent units shortens the prefix, and a Flush
// empties it: a fresh unit after either is the next one sent.
func TestPumpStartsAtFirstUnsent(t *testing.T) {
	h := newHarness()
	for _, l := range []string{"a", "b", "c", "d"} {
		h.s.Push(1, l)
	}
	var out []string
	emit := func(_ uint32, v *string) { out = append(out, *v) }
	h.s.Pump(func(seq uint32, _ *string) bool { return seq < 2 }, emit)
	h.s.Ack(1, nil)
	if s, v := h.s.Unsent(); v == nil || *v != "c" || s != 2 {
		t.Fatalf("after acking a of the sent prefix a b: Unsent = %d %v, want c at 2", s, v)
	}
	out = nil
	h.s.Pump(all, emit)
	if !slices.Equal(out, []string{"c", "d"}) {
		t.Fatalf("Pump after the ack emitted %v, want c d", out)
	}
	h.s.Flush(nil)
	h.s.Push(1, "x")
	out = nil
	h.s.Pump(all, emit)
	if !slices.Equal(out, []string{"x"}) {
		t.Fatalf("Pump after Flush emitted %v, want x", out)
	}
}

// TestFlushOrder: Flush hands every unit to done oldest first, then
// zeroes both sequence numbers, refills the budget and stops the timer.
func TestFlushOrder(t *testing.T) {
	h := newHarness()
	h.s.Una, h.s.Nxt = 100, 100
	for _, l := range []string{"a", "b", "c"} {
		h.s.Push(1, l)
	}
	h.s.Pump(func(seq uint32, _ *string) bool { return seq < 102 }, func(uint32, *string) {})
	h.s.Arm()
	h.s.Ack(101, nil)
	h.s.retries = 3
	var got []string
	h.s.Flush(func(v *string) {
		got = append(got, *v)
		if h.s.q.Len() != 2 {
			t.Fatalf("done ran with %d units queued, want the queue intact until every unit is handed over", h.s.q.Len())
		}
	})
	if !slices.Equal(got, []string{"b", "c"}) {
		t.Fatalf("Flush handed over %v, want b c (oldest first, sent and unsent)", got)
	}
	if h.s.q.Len() != 0 || h.s.Una != 0 || h.s.Nxt != 0 || h.s.retries != 0 || h.s.rto.Armed() {
		t.Fatalf("after Flush: %d queued, Una %d, Nxt %d, %d retries, timer armed %v",
			h.s.q.Len(), h.s.Una, h.s.Nxt, h.s.retries, h.s.rto.Armed())
	}
	h.eng.Run()
	if len(h.fires) != 0 {
		t.Fatalf("a flushed sender's timer fired at %v", h.fires)
	}
}
