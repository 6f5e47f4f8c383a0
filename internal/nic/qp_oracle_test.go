package nic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flexdriver/internal/sim"
)

// qpPair is FuzzQPPair's world: rdmaHarness's two RC QPs across a wire
// whose fault hooks read a tape, and the reference oracle — every message
// posted, and what each one has received so far.
type qpPair struct {
	t     *testing.T
	h     *rdmaHarness
	start uint32 // PSN both streams start from, in every incarnation

	// tape holds one fault byte per frame the wire carries while faults
	// are on; fate is the current frame's decision, read by the Delay and
	// Dup hooks that follow the Loss hook for the same frame.
	tape  []byte
	fate  byte
	clean bool

	// lossRun counts the frames the tape lost since the sender's Una last
	// moved (runUna) or the incarnation began: an Error must follow a run
	// of at least MaxRetransmits, one per no-progress retransmission. The
	// Error's flush zeroes Una, which is no progress.
	lossRun int
	runUna  uint32
	judged  bool // this incarnation's Error has been explained

	msgs     [][]byte // every message posted, by post order (= WQE index)
	signaled []bool
	cqes     []int  // CQEs each message has received
	sendCQE  []bool // ... of which a send completion
	seen     int    // h.cqes consumed
	rxSeen   int    // *h.msgs consumed
	lastRx   int    // highest message delivered, -1 before any
	lastSend int    // highest send completion, -1 before any
	rxd      []bool
	// excused marks messages a reconnect of a healthy QP tore down: the
	// modify-QP reset discards them without completions.
	excused []bool

	// The current incarnation: first message posted in it and the sender's
	// QueueErrors when it began.
	incFirst  int
	incErrors int64
}

// qpMessage is message i's content: its index, then bytes that depend on
// index and offset, so a stale, misplaced or doubled message shows.
func qpMessage(i, n int) []byte {
	b := make([]byte, n)
	binary.BigEndian.PutUint32(b, uint32(i))
	for j := 4; j < n; j++ {
		x := uint64(i)<<32 ^ uint64(j)
		x *= 0x9e3779b97f4a7c15
		b[j] = byte(x >> 56)
	}
	return b
}

// startPSNs sets both PSN streams of the a→b connection to psn.
func startPSNs(a, b *QP, psn uint32) {
	a.snd.Una, a.snd.Nxt, b.expPSN = psn, psn, psn
}

func newQPPair(t *testing.T, mtu int, start uint32, tape []byte) *qpPair {
	p := &qpPair{t: t, h: newRDMAHarness(t, mtu), start: start, tape: tape, lastRx: -1, lastSend: -1, runUna: start}
	startPSNs(p.h.qpA, p.h.qpB, start)
	w := p.h.wire
	w.Loss = func(int, []byte) bool {
		p.fate = 0xff
		if !p.clean && len(p.tape) > 0 {
			p.fate, p.tape = p.tape[0], p.tape[1:]
		}
		if una := p.h.qpA.snd.Una; una != p.runUna && p.h.qpA.State() == QueueReady {
			p.runUna, p.lossRun = una, 0
		}
		if p.fate%8 == 0 {
			p.lossRun++
		}
		return p.fate%8 == 0
	}
	w.Dup = func(int, []byte) bool { return p.fate%8 == 1 }
	w.Delay = func(int, []byte) sim.Duration {
		if p.fate%8 == 2 {
			return sim.Duration(p.fate>>3) * 500 * sim.Nanosecond
		}
		return 0
	}
	return p
}

// post queues one message on A's send queue and rings the doorbell. The
// ring holds 256 descriptors; a post that would lap the NIC is skipped.
func (p *qpPair) post(n int, signal bool) {
	if p.h.sqA.pi-p.h.sqA.sq.CI() >= 200 {
		return
	}
	i := len(p.msgs)
	m := qpMessage(i, n)
	p.msgs = append(p.msgs, m)
	p.signaled = append(p.signaled, signal)
	p.cqes = append(p.cqes, 0)
	p.sendCQE = append(p.sendCQE, false)
	p.rxd = append(p.rxd, false)
	p.excused = append(p.excused, false)
	p.h.sendMessage(m, signal)
}

// observe folds every completion and delivery since the last call into the
// oracle and checks the per-event properties: in-order, intact, at-most-once
// delivery, one CQE per message, and an Error only behind a run of losses
// that spent the retry budget. Each retransmission after the last progress
// needs a loss of its own (the link's delays are far shorter than the
// timeout), so a shorter run means the QP gave up on a healthy path.
func (p *qpPair) observe() {
	if p.h.qpA.State() == QueueError && !p.judged {
		p.judged = true
		if budget := p.h.a.nic.Prm.MaxRetransmits; p.lossRun < budget {
			p.t.Fatalf("retry budget: the QP entered Error after %d losses since its last progress, fewer than its budget of %d", p.lossRun, budget)
		}
	}
	for ; p.rxSeen < len(*p.h.msgs); p.rxSeen++ {
		m := (*p.h.msgs)[p.rxSeen]
		if len(m) < 4 {
			p.t.Fatalf("message order: a %d-byte message arrived, shorter than any sent", len(m))
		}
		i := int(binary.BigEndian.Uint32(m))
		if i <= p.lastRx || i >= len(p.msgs) {
			p.t.Fatalf("message order: message %d arrived after message %d (%d posted): out of order or twice", i, p.lastRx, len(p.msgs))
		}
		if !bytes.Equal(m, p.msgs[i]) {
			p.t.Fatalf("message integrity: message %d arrived as %d bytes that differ from the %d sent", i, len(m), len(p.msgs[i]))
		}
		p.lastRx, p.rxd[i] = i, true
	}
	for ; p.seen < len(*p.h.cqes); p.seen++ {
		c := (*p.h.cqes)[p.seen]
		i := int(c.Index)
		if i >= len(p.msgs) {
			p.t.Fatalf("completion: CQE for WQE %d, only %d posted", i, len(p.msgs))
		}
		if p.cqes[i]++; p.cqes[i] > 1 {
			p.t.Fatalf("completion: message %d got a second CQE (opcode %#x)", i, c.Opcode)
		}
		switch c.Opcode {
		case CQESend:
			if !p.signaled[i] {
				p.t.Fatalf("completion: unsignaled message %d got a send CQE", i)
			}
			if i <= p.lastSend {
				p.t.Fatalf("completion: send CQE for message %d after message %d's", i, p.lastSend)
			}
			p.sendCQE[i], p.lastSend = true, i
		case CQEError:
		default:
			p.t.Fatalf("completion: message %d got CQE opcode %#x", i, c.Opcode)
		}
	}
}

// reconnect is the driver's recovery: both QPs restart their PSN streams
// at the pair's start, in a new epoch.
func (p *qpPair) reconnect() {
	if p.h.qpA.State() == QueueReady {
		for i := range p.msgs {
			p.excused[i] = p.excused[i] || p.cqes[i] == 0
		}
	}
	ReconnectQPs(p.h.qpA, p.h.qpB)
	startPSNs(p.h.qpA, p.h.qpB, p.start)
	p.incFirst, p.incErrors = len(p.msgs), p.h.a.nic.Stats.QueueErrors
	p.lossRun, p.runUna, p.judged = 0, p.start, false
}

// settle runs until the engine is empty. Liveness is judged in simulated
// work: it must fall quiet within budget dispatched events.
func (p *qpPair) settle(budget uint64) {
	eng := p.h.eng
	start := eng.Dispatched()
	for eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 50*sim.Microsecond)
		if eng.Dispatched()-start > budget {
			p.t.Fatalf("liveness: the QP pair did not fall quiet within %d events (%d packets outstanding, QP states %s/%s)",
				budget, p.h.qpA.Outstanding(), p.h.qpA.State(), p.h.qpB.State())
		}
		p.observe()
	}
	p.observe()
}

// checkComplete holds after settling on a clean wire: nothing was
// acknowledged that did not arrive; every signaled message has a send or
// error CQE, unless a reconnect of a healthy QP tore it down or it reached
// the QP in Error (dropped as qp-error-state, which ACKs arriving at a
// dead QP count too, so that count bounds the silent ones); and if the
// sender has not failed since the incarnation began, every message posted
// in it was delivered and each signaled one completed once.
func (p *qpPair) checkComplete(when string) {
	n := p.h.a.nic
	if d := p.h.b.nic.Stats.Drops[DropRQOverflow] + p.h.b.nic.Stats.Drops[DropRQNoBuffers]; d > 0 {
		p.t.Fatalf("harness: the receiver dropped %d packets for want of buffers", d)
	}
	var silent int64
	for i := range p.msgs {
		if p.sendCQE[i] && !p.rxd[i] {
			p.t.Fatalf("completion %s: message %d completed but never arrived", when, i)
		}
		if p.signaled[i] && p.cqes[i] == 0 && !p.excused[i] {
			silent++
		}
	}
	if dead := n.Stats.Drops[DropQPError]; silent > dead {
		p.t.Fatalf("completion %s: %d signaled messages have no CQE, only %d could have met a QP in Error", when, silent, dead)
	}
	if p.h.qpA.State() != QueueReady || n.Stats.QueueErrors != p.incErrors {
		return
	}
	for i := p.incFirst; i < len(p.msgs); i++ {
		if !p.rxd[i] {
			p.t.Fatalf("completion %s: message %d of %d, posted in a healthy incarnation, never arrived", when, i, len(p.msgs))
		}
		if p.signaled[i] && p.cqes[i] != 1 {
			p.t.Fatalf("completion %s: signaled message %d has %d CQEs, want one send completion", when, i, p.cqes[i])
		}
	}
}

// run interprets a byte program, one opcode and one argument byte per
// step.
func (p *qpPair) run(prog []byte) {
	const maxSteps = 200
	for i := 0; i+1 < len(prog) && i < 2*maxSteps; i += 2 {
		op, arg := prog[i]%8, int(prog[i+1])
		switch op {
		case 0, 1, 2, 3:
			p.post(4+arg*8, op&1 == 0)
		case 4, 5:
			p.h.eng.RunUntil(p.h.eng.Now() + sim.Duration(1+arg)*sim.Microsecond)
		case 6: // a long silence: retransmission timeouts, retry budget
			p.h.eng.RunUntil(p.h.eng.Now() + sim.Duration(1+arg%8)*100*sim.Microsecond)
		case 7:
			if arg%4 == 0 || p.h.qpA.State() != QueueReady {
				p.reconnect()
			}
		}
		p.observe()
	}
}

// FuzzQPPair is the RC transport's oracle test. Two QPs, PSNs started
// near 2³², exchange messages over a wire whose loss, duplication and
// delay (reordering) follow a fault tape, while a byte program posts
// signaled and unsignaled messages, advances time through retransmission
// timeouts and reconnects (ReconnectQPs, a new epoch) with stale packets
// in flight. Throughout, messages arrive in order, intact and at most
// once, no message gets two CQEs or a send CQE it did not ask for, and the
// QP enters Error only behind a run of losses as long as its retry budget.
// At the end the tape is spent, the pair must fall quiet within an event
// budget, every message of a healthy incarnation has arrived and every
// signaled one has exactly one send CQE — and after a final reconnect a
// fresh batch goes through clean.
func FuzzQPPair(f *testing.F) {
	f.Add(uint8(1), uint8(10), []byte{}, []byte{0, 20, 1, 200, 2, 255, 3, 10, 4, 100})
	// Loss, duplication and delay on a 256-byte MTU.
	f.Add(uint8(0), uint8(3), []byte{8, 1, 2, 0x52, 3, 0, 9, 17, 0xf2, 5, 4, 0, 1},
		[]byte{0, 100, 0, 200, 2, 150, 4, 50, 0, 90, 6, 1, 4, 200})
	// A blackhole long enough to spend the retry budget into Error, then
	// the driver's reconnect and more traffic.
	f.Add(uint8(2), uint8(60), bytes.Repeat([]byte{0}, 40),
		[]byte{0, 30, 2, 30, 6, 7, 6, 7, 7, 1, 0, 20, 4, 60})
	// Reconnect with delayed packets of the old epoch still in flight.
	f.Add(uint8(0), uint8(1), []byte{0xfa, 0xfa, 0xfa, 0xfa, 3, 3, 0xfa, 0xfa},
		[]byte{0, 250, 0, 250, 4, 3, 7, 0, 0, 40, 4, 250})
	// Six losses, fewer than the retry budget of eight: a retransmission
	// gets through and the QP stays Ready. Kill row R8 halves the budget,
	// and the QP's Error then has no run of losses to explain it.
	f.Add(uint8(0), uint8(5), bytes.Repeat([]byte{0}, 6), []byte{0, 1, 6, 7})
	f.Fuzz(func(t *testing.T, mtuSel, below uint8, tape, prog []byte) {
		p := newQPPair(t, 256<<(mtuSel%3), ^uint32(0)-uint32(below), tape)
		p.run(prog)
		p.clean = true
		p.settle(2_000_000)
		p.checkComplete("after settling")
		if p.h.qpA.State() != QueueReady {
			p.reconnect()
		}
		for i := 0; i < 4; i++ {
			p.post(100+i*700, true)
		}
		p.settle(2_000_000)
		p.checkComplete("on a fresh incarnation")
		if p.h.qpA.State() != QueueReady || p.h.a.nic.Stats.QueueErrors != p.incErrors {
			t.Fatalf("completion: a clean wire took the fresh incarnation to %s", p.h.qpA.State())
		}
	})
}
