package tcp

import (
	"bytes"
	"testing"

	"flexdriver/internal/sim"
)

// connPair is FuzzConnPair's world: two Conns on one engine joined by an
// in-memory link the byte program controls segment by segment, and the
// reference oracle — what each side has sent and received in each
// connection incarnation.
type connPair struct {
	t    *testing.T
	eng  *sim.Engine
	c    [2]*Conn
	link [2][]wireSeg // link[d] carries side d's segments to side 1-d
	inc  int          // incarnation: 0 after Connect, +1 per Reconnect
	// sent[s][inc] is every stream byte side s handed Send in that
	// incarnation; got[s][inc] every byte side s was delivered.
	sent, got [2][][]byte
	sentBytes [2]int64
	fins      [2]int64 // successful Closes: a FIN's sequence number counts as acked
	pending   [2]int   // delivered-not-consumed bytes
	drain     bool     // consume on delivery (the settle phase)
}

type wireSeg struct {
	seg     Segment
	payload []byte
}

// streamByte tags every stream byte with its sender, incarnation and
// offset, so a stale or misplaced byte cannot pass for the right one.
func streamByte(side, inc, off int) byte {
	x := uint64(side)<<56 ^ uint64(inc)<<40 ^ uint64(off)
	x *= 0x9e3779b97f4a7c15
	return byte(x>>56) ^ byte(x>>29)
}

func newConnPair(t *testing.T, mtu, window int) *connPair {
	p := &connPair{t: t, eng: sim.NewEngine()}
	for s := range p.c {
		c := New(p.eng, Config{SrcPort: uint16(1 + s), DstPort: uint16(2 - s), MTU: mtu, Window: window})
		c.Transmit = func(seg Segment, payload []byte) {
			p.link[s] = append(p.link[s], wireSeg{seg, append([]byte(nil), payload...)})
		}
		c.OnDeliver = func(b []byte) { p.deliver(s, b) }
		c.OnError = func() {
			if st := p.c[s].State(); st != StateError {
				t.Fatalf("error escalation: OnError ran in state %s", st)
			}
			p.checkConservation(s, "at Error")
		}
		p.c[s] = c
	}
	Connect(p.c[0], p.c[1])
	p.newIncarnation()
	return p
}

func (p *connPair) newIncarnation() {
	for s := range p.sent {
		p.sent[s] = append(p.sent[s], nil)
		p.got[s] = append(p.got[s], nil)
	}
}

// deliver is side s's OnDeliver: the bytes must extend, in order, the
// prefix of what the peer sent in the current incarnation.
func (p *connPair) deliver(s int, b []byte) {
	if st := p.c[s].State(); st == StateError || st == StateClosed {
		p.t.Fatalf("delivery after Error: side %d delivered %d bytes in state %s", s, len(b), st)
	}
	got := append(p.got[s][p.inc], b...)
	p.got[s][p.inc] = got
	want := p.sent[1-s][p.inc]
	if len(got) > len(want) || !bytes.Equal(got, want[:len(got)]) {
		p.t.Fatalf("in-order prefix: side %d, incarnation %d delivered %d bytes that are not a prefix of the %d its peer sent",
			s, p.inc, len(got), len(want))
	}
	if p.drain {
		p.c[s].Consume(len(b))
	} else {
		p.pending[s] += len(b)
	}
}

// checkConservation holds whenever side s's send queue is empty (after
// Error, Reconnect or a full ack): every byte it ever sent was either
// acknowledged or flushed, and every byte the peer delivered was sent.
// AckedBytes counts sequence space, so each acked FIN adds one.
func (p *connPair) checkConservation(s int, when string) {
	st := p.c[s].Stats
	if extra := st.AckedBytes + st.FlushedBytes - p.sentBytes[s]; extra < 0 || extra > p.fins[s] {
		p.t.Fatalf("byte conservation %s: side %d sent %d bytes and %d FINs, acked %d + flushed %d = %d",
			when, s, p.sentBytes[s], p.fins[s], st.AckedBytes, st.FlushedBytes, st.AckedBytes+st.FlushedBytes)
	}
	var got int64
	for _, g := range p.got[1-s] {
		got += int64(len(g))
	}
	if peer := p.c[1-s].Stats.DeliveredBytes; peer != got || got < st.AckedBytes-p.fins[s] {
		p.t.Fatalf("byte conservation %s: side %d's peer delivered %d bytes (counted %d), fewer than the %d acked",
			when, s, got, peer, st.AckedBytes)
	}
}

func (p *connPair) send(s, n int) {
	data := make([]byte, n)
	off := len(p.sent[s][p.inc])
	for i := range data {
		data[i] = streamByte(s, p.inc, off+i)
	}
	if p.c[s].Send(data) == nil {
		p.sent[s][p.inc] = append(p.sent[s][p.inc], data...)
		p.sentBytes[s] += int64(n)
	}
}

// transfer hands the head segment of link d to its receiver.
func (p *connPair) transfer(d int) {
	w := p.link[d][0]
	p.link[d] = p.link[d][1:]
	p.c[1-d].Ingress(w.seg, w.payload)
}

func (p *connPair) reconnect() {
	Reconnect(p.c[0], p.c[1])
	p.inc++
	p.newIncarnation()
	p.pending = [2]int{}
	for s := range p.c {
		p.checkConservation(s, "after Reconnect")
	}
}

// settle heals the link, consumes everything, and runs wire and timers
// until nothing is left to do. Liveness is judged in simulated work: the
// pair must fall quiet within budget dispatched events plus segment
// hand-offs.
func (p *connPair) settle(budget uint64) {
	p.drain = true
	for s := range p.c {
		if n := p.pending[s]; n > 0 {
			p.pending[s] = 0
			p.c[s].Consume(n)
		}
	}
	var moved uint64
	start := p.eng.Dispatched()
	for {
		if len(p.link[0])+len(p.link[1]) > 0 {
			for d := range p.link {
				for len(p.link[d]) > 0 {
					p.transfer(d)
					moved++
				}
			}
		} else if p.eng.Pending() > 0 {
			p.eng.RunUntil(p.eng.Now() + sim.Microsecond)
		} else {
			return
		}
		if work := p.eng.Dispatched() - start + moved; work > budget {
			p.t.Fatalf("liveness: the pair did not fall quiet within %d events and segments (states %s/%s)",
				budget, p.c[0].State(), p.c[1].State())
		}
	}
}

// run interprets a byte program: two configuration bytes (MTU, window),
// then one opcode and one argument byte per step.
func (p *connPair) run(prog []byte) {
	const maxSteps = 400
	for i := 0; i+1 < len(prog) && i < 2*maxSteps; i += 2 {
		op, arg := prog[i]%12, int(prog[i+1])
		s, d := arg&1, arg&1
		switch op {
		case 0, 1:
			p.send(int(op), 1+arg*4)
		case 2, 3:
			s = int(op - 2)
			if n := min(p.pending[s], 1+arg*8); n > 0 {
				p.pending[s] -= n
				p.c[s].Consume(n)
			}
		case 4:
			if len(p.link[d]) > 0 {
				p.transfer(d)
			}
		case 5:
			for n := arg >> 1; n > 0 && len(p.link[d]) > 0; n-- {
				p.transfer(d)
			}
		case 6: // drop
			if len(p.link[d]) > 0 {
				p.link[d] = p.link[d][1:]
			}
		case 7: // duplicate
			if len(p.link[d]) > 0 {
				p.link[d] = append([]wireSeg{p.link[d][0]}, p.link[d]...)
			}
		case 8: // reorder: the head swaps with a later segment
			if n := len(p.link[d]); n > 1 {
				j := 1 + (arg>>1)%(n-1)
				p.link[d][0], p.link[d][j] = p.link[d][j], p.link[d][0]
			}
		case 9: // timers
			p.eng.RunUntil(p.eng.Now() + sim.Duration(1+arg%40)*sim.Microsecond)
		case 10:
			if p.c[s].Close() == nil {
				p.fins[s]++
			}
		case 11:
			if arg%4 == 0 {
				p.reconnect()
			}
		}
	}
}

// FuzzConnPair is the TCP state machine's oracle test: two Conns over an
// in-memory link that a byte program drives through Send, Consume, Close,
// segment drop, duplication and reordering, timer advance and Reconnect.
// Throughout, each incarnation delivers an in-order prefix of the bytes
// sent in it, nothing is delivered after Error, and every byte a side
// sent is acknowledged or flushed (AckedBytes + FlushedBytes) whenever
// its queue is empty. At the end the link heals, the pair must fall quiet
// within an event budget, and a side that did not end in Error must have
// every byte it sent in the last incarnation delivered.
func FuzzConnPair(f *testing.F) {
	f.Add([]byte{2, 40, 0, 200, 5, 20, 5, 21, 9, 10, 1, 30, 5, 21, 5, 20})
	// Lossy two-way exchange with duplication and reordering.
	f.Add([]byte{3, 200, 0, 255, 1, 255, 6, 0, 7, 1, 8, 4, 4, 0, 4, 1, 9, 12, 5, 30, 5, 31, 9, 20, 0, 80})
	// A window smaller than the next segment with nothing in flight: the
	// persist probe, not the RTO, must reopen it once the receiver consumes.
	f.Add([]byte{3, 40, 0, 255, 5, 40, 9, 30, 3, 255, 9, 30, 5, 40, 3, 255, 9, 30, 5, 40})
	// Blackhole into Error, then Reconnect with stale segments in flight.
	f.Add([]byte{1, 100, 0, 100, 6, 0, 9, 39, 9, 39, 9, 39, 9, 39, 9, 39, 9, 39, 9, 39, 9, 39, 9, 39, 11, 0, 0, 50, 5, 30})
	// Close from both sides mid-stream.
	f.Add([]byte{2, 100, 0, 60, 1, 60, 10, 0, 5, 20, 10, 1, 5, 21, 5, 20, 9, 10})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		mtu := 32 << (prog[0] % 4)
		window := 64 + int(prog[1])*16
		p := newConnPair(t, mtu, window)
		p.run(prog[2:])
		p.settle(200_000)
		for s := range p.c {
			if p.c[s].State() != StateError {
				if got, sent := len(p.got[1-s][p.inc]), len(p.sent[s][p.inc]); got != sent {
					t.Fatalf("completion: side %d ended %s with %d of the %d bytes it sent in incarnation %d delivered",
						s, p.c[s].State(), got, sent, p.inc)
				}
			}
			p.checkConservation(s, "after settling")
		}
	})
}
