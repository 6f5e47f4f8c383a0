package tcp

import (
	"bytes"
	"testing"

	"flexdriver/internal/sim"
)

// loopback cross-wires two Conns on one engine through a model wire with
// a small propagation delay and an optional per-segment drop hook — the
// minimal harness for the transport's own machinery, below the NIC/
// switch layers the edge-case tests drive.
type loopback struct {
	eng   *sim.Engine
	a, b  *Conn
	delay sim.Duration
	// drop inspects every segment before delivery; true discards it.
	// dir 0 is a->b, 1 is b->a.
	drop func(dir int, seg Segment, payload []byte) bool
}

func newLoopback(eng *sim.Engine, cfgA, cfgB Config) *loopback {
	w := &loopback{eng: eng, delay: 200 * sim.Nanosecond}
	w.a, w.b = New(eng, cfgA), New(eng, cfgB)
	wire := func(dir int, dst *Conn) func(Segment, []byte) {
		return func(seg Segment, payload []byte) {
			if w.drop != nil && w.drop(dir, seg, payload) {
				return
			}
			pl := append([]byte(nil), payload...)
			eng.After(w.delay, func() { dst.Ingress(seg, pl) })
		}
	}
	w.a.Transmit = wire(0, w.b)
	w.b.Transmit = wire(1, w.a)
	Connect(w.a, w.b)
	return w
}

// runBounded runs the engine until it drains, failing the test if that
// takes more than budget events: a liveness bug shows as a named failure
// in simulated work, not as go test's timeout.
func runBounded(t *testing.T, eng *sim.Engine, budget uint64) {
	t.Helper()
	for limit := eng.Dispatched() + budget; eng.Pending() > 0; {
		eng.RunUntil(eng.Now() + 100*sim.Microsecond)
		if eng.Dispatched() > limit {
			t.Fatalf("liveness: the connection did not quiesce within %d events", budget)
		}
	}
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	for _, seg := range []Segment{
		{},
		{SrcPort: 9100, DstPort: 9101, Seq: 42, Ack: 7, Flags: FlagAck, Window: 8192, Epoch: 1},
		{SrcPort: 0xffff, DstPort: 1, Seq: 0xffffffff, Ack: 0xfffffffe,
			Flags: FlagFin | FlagAck | FlagPsh, Window: 0xffff, Epoch: 0xff},
		{Flags: FlagSyn, Epoch: 3},
	} {
		payload := []byte("stream bytes")
		b := append(seg.Marshal(nil), payload...)
		got, pl, ok := ParseSegment(b)
		if !ok || got != seg || !bytes.Equal(pl, payload) {
			t.Errorf("round trip of %v: got %v ok=%v payload %q", seg, got, ok, pl)
		}
	}
	for _, b := range [][]byte{nil, make([]byte, HeaderLen-1), {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0, 0, 0, 0, 0, 0, 0}} {
		if _, _, ok := ParseSegment(b); ok {
			t.Errorf("ParseSegment accepted %d bytes with bad layout", len(b))
		}
	}
}

// TestRetransmitAfterLoss drops the first copy of one data segment; the
// RTO must resend it and the stream still delivers exactly once.
func TestRetransmitAfterLoss(t *testing.T) {
	eng := sim.NewEngine()
	w := newLoopback(eng, Config{SrcPort: 1, DstPort: 2}, Config{SrcPort: 2, DstPort: 1})
	var delivered []byte
	w.b.OnDeliver = func(p []byte) {
		delivered = append(delivered, p...)
		w.b.Consume(len(p))
	}
	dropped := false
	w.drop = func(dir int, seg Segment, payload []byte) bool {
		if dir == 0 && len(payload) > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	msg := bytes.Repeat([]byte("x"), 600)
	if err := w.a.Send(msg); err != nil {
		t.Fatal(err)
	}
	runBounded(t, eng, 100_000)
	if !bytes.Equal(delivered, msg) {
		t.Fatalf("delivered %d bytes, want %d", len(delivered), len(msg))
	}
	if w.a.Stats.Retransmits == 0 {
		t.Errorf("lost segment was never retransmitted: %+v", w.a.Stats)
	}
}

// TestFastRetransmit drops one mid-stream segment; the segments behind
// it draw dup-acks and the third must trigger a resend before the RTO.
func TestFastRetransmit(t *testing.T) {
	eng := sim.NewEngine()
	w := newLoopback(eng, Config{SrcPort: 1, DstPort: 2, MTU: 256}, Config{SrcPort: 2, DstPort: 1})
	var delivered int
	w.b.OnDeliver = func(p []byte) { delivered += len(p); w.b.Consume(len(p)) }
	n := 0
	w.drop = func(dir int, _ Segment, payload []byte) bool {
		if dir == 0 && len(payload) > 0 {
			n++
			return n == 2 // lose the second data segment only
		}
		return false
	}
	if err := w.a.Send(make([]byte, 6*256)); err != nil {
		t.Fatal(err)
	}
	runBounded(t, eng, 100_000)
	if delivered != 6*256 {
		t.Fatalf("delivered %d of %d bytes", delivered, 6*256)
	}
	if w.a.Stats.FastRetransmits == 0 {
		t.Errorf("no fast retransmit despite %d dup-acks: %+v", w.a.Stats.DupAcksRcvd, w.a.Stats)
	}
	if w.b.Stats.OutOfOrder == 0 {
		t.Errorf("receiver never saw the hole: %+v", w.b.Stats)
	}
}

// TestErrorEscalationAndReconnect blackholes the wire: the retry budget
// must escalate to Error and flush the queue, and Reconnect must yield a
// working fresh incarnation that drops the old epoch's stragglers.
func TestErrorEscalationAndReconnect(t *testing.T) {
	eng := sim.NewEngine()
	w := newLoopback(eng, Config{SrcPort: 1, DstPort: 2}, Config{SrcPort: 2, DstPort: 1})
	var delivered int
	w.b.OnDeliver = func(p []byte) { delivered += len(p); w.b.Consume(len(p)) }
	dark := true
	var stale Segment
	w.drop = func(dir int, seg Segment, payload []byte) bool {
		if dark && dir == 0 && len(payload) > 0 {
			stale = seg // keep one old-epoch header to replay later
		}
		return dark
	}
	errored := false
	w.a.OnError = func() { errored = true }
	if err := w.a.Send(make([]byte, 2000)); err != nil {
		t.Fatal(err)
	}
	runBounded(t, eng, 100_000)
	if st := w.a.State().String(); st != "Error" || !errored {
		t.Fatalf("blackholed sender in %s after drain (OnError ran: %v), want Error", st, errored)
	}
	if w.a.Stats.FlushedBytes != 2000 {
		t.Errorf("flushed %d bytes, want the whole 2000-byte queue", w.a.Stats.FlushedBytes)
	}

	dark = false
	Reconnect(w.a, w.b)
	if err := w.a.Send(make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	// A straggler from the dead incarnation arrives mid-stream: the
	// epoch check must discard it without touching the new sequence
	// space.
	eng.After(100*sim.Nanosecond, func() { w.b.Ingress(stale, make([]byte, 1000)) })
	runBounded(t, eng, 100_000)
	if delivered != 500 {
		t.Fatalf("fresh incarnation delivered %d bytes, want 500", delivered)
	}
	if w.b.Stats.StaleEpoch == 0 {
		t.Errorf("old-epoch segment was not screened: %+v", w.b.Stats)
	}
}

// TestSmallWindowNoDeadlock pins the partial-window regression: a window
// smaller than the next segment with nothing in flight must stall and
// persist-probe, not spin the RTO to Error — and the stream completes
// once the receiver consumes.
func TestSmallWindowNoDeadlock(t *testing.T) {
	eng := sim.NewEngine()
	w := newLoopback(eng,
		Config{SrcPort: 1, DstPort: 2, MTU: 512},
		Config{SrcPort: 2, DstPort: 1, Window: 700})
	var pending, delivered int
	w.b.OnDeliver = func(p []byte) { pending += len(p); delivered += len(p) }
	var consume func()
	consume = func() {
		if pending > 0 {
			w.b.Consume(pending)
			pending = 0
		}
		if delivered < 3*512 {
			eng.After(15*sim.Microsecond, consume)
		}
	}
	eng.After(15*sim.Microsecond, consume)
	// Three 512-byte segments against a 700-byte window: after the first
	// is buffered, the remaining window (188) never fits a segment, and
	// with nothing in flight only a persist probe can reopen the flow.
	if err := w.a.Send(make([]byte, 3*512)); err != nil {
		t.Fatal(err)
	}
	runBounded(t, eng, 100_000)
	if delivered != 3*512 {
		t.Fatalf("delivered %d of %d bytes", delivered, 3*512)
	}
	if w.a.Stats.Errors != 0 {
		t.Errorf("partial window escalated to Error: %+v", w.a.Stats)
	}
	if w.a.Stats.ZeroWindowStalls == 0 || w.a.Stats.Probes == 0 {
		t.Errorf("no stall/probe on a too-small window: %+v", w.a.Stats)
	}
}

// TestAckBeyondSndNxtIgnored delivers a pure ACK for a byte the sender
// never sent (Ack = snd.Nxt+1) to a connection with data in flight. A
// sender that takes it cumulatively frees segments the peer has not
// received; the ACK must change nothing. (arq.TestAckBounds holds the
// sender's timer to the same rule.)
func TestAckBeyondSndNxtIgnored(t *testing.T) {
	eng := sim.NewEngine()
	w := newLoopback(eng, Config{SrcPort: 1, DstPort: 2}, Config{SrcPort: 2, DstPort: 1})
	w.drop = func(int, Segment, []byte) bool { return true } // a silent peer
	if err := w.a.Send(bytes.Repeat([]byte("x"), 600)); err != nil {
		t.Fatal(err)
	}
	c := w.a
	una, nxt := c.snd.Una, c.snd.Nxt
	if una == nxt {
		t.Fatalf("nothing in flight to mis-acknowledge: una=%d nxt=%d", una, nxt)
	}
	c.Ingress(Segment{SrcPort: 2, DstPort: 1, Ack: nxt + 1, Flags: FlagAck,
		Window: 65535, Epoch: c.epoch}, nil)
	if c.snd.Una != una || c.snd.Nxt != nxt || c.Stats.AckedBytes != 0 {
		t.Fatalf("ACK beyond snd.Nxt accepted: Una %d -> %d, Nxt %d -> %d, %d bytes counted acked",
			una, c.snd.Una, nxt, c.snd.Nxt, c.Stats.AckedBytes)
	}
	runBounded(t, eng, 100_000)
	if c.Stats.Retransmits == 0 || c.State() != StateError {
		t.Fatalf("after the bogus ACK the RTO no longer guards the queue: %d retransmits, state %s",
			c.Stats.Retransmits, c.State())
	}
}

// TestAllocsPerTCPSend pins a warm Send+Run on a connected pair wired
// back to back: the segment's payload copy and its delivered copy
// allocate. The send queue does not — arq's sim.FIFO rewinds onto its
// array, where the old slice walk reallocated — and neither does the RTO,
// a sim.Timer, where a closure per arm cost one more allocation per send.
func TestAllocsPerTCPSend(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, Config{SrcPort: 1, DstPort: 2})
	b := New(eng, Config{SrcPort: 2, DstPort: 1})
	a.Transmit = func(s Segment, p []byte) { b.Ingress(s, p) }
	b.Transmit = func(s Segment, p []byte) { a.Ingress(s, p) }
	b.OnDeliver = func(p []byte) { b.Consume(len(p)) }
	Connect(a, b)
	msg := make([]byte, 512)
	send := func() {
		if a.Send(msg) != nil {
			t.Fatal("connection left Established")
		}
		eng.Run()
	}
	send()
	avg := testing.AllocsPerRun(100, send)
	t.Logf("%.2f allocations per TCP send round trip", avg)
	if avg > 2 {
		t.Fatalf("%.2f allocations per send round trip, want <= 2", avg)
	}
}
