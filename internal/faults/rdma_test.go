package faults_test

// Go-back-N coverage through the fault plane: a deterministic single
// loss exercises the receiver's one-NAK-per-gap rule, an ACK blackhole
// pins the sender's window clamp, and a persistent blackhole drives the
// bounded retry budget into QP-Error and out again via ReconnectQPs.
// These tests live outside package faults so they can drive the public
// facade (which imports faults).

import (
	"bytes"
	"testing"

	"flexdriver"
	"flexdriver/internal/faults"
	"flexdriver/internal/nic"
	"flexdriver/internal/swdriver"
)

// rdmaBed cables two plain hosts and connects a verbs endpoint pair.
func rdmaBed(t *testing.T, nicPrm flexdriver.NICParams, msgBytes int) (
	*flexdriver.Engine, *flexdriver.Wire, *flexdriver.Host, *flexdriver.Host,
	*swdriver.RDMAEndpoint, *swdriver.RDMAEndpoint) {
	t.Helper()
	eng := flexdriver.NewEngine()
	a := flexdriver.NewHost(eng, "a", flexdriver.WithNIC(nicPrm))
	b := flexdriver.NewHost(eng, "b", flexdriver.WithNIC(nicPrm))
	w := nic.ConnectWire(a.NIC, b.NIC, 25*flexdriver.Gbps, 500*flexdriver.Nanosecond)
	cfg := swdriver.RDMAConfig{SendEntries: 64, RecvEntries: 64, MaxMsgBytes: msgBytes, MTU: 1024}
	epA := a.Drv.NewRDMAEndpoint(cfg)
	epB := b.Drv.NewRDMAEndpoint(cfg)
	nic.ConnectQPs(epA.QP, epB.QP)
	return eng, w, a, b, epA, epB
}

func patterned(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	return msg
}

// TestGoBackNNaksOncePerLossEvent drops exactly one data packet (the
// 3rd A->B frame, deterministically via WireDropNth) out of an 8-packet
// message. The receiver sees five out-of-order successors but — per the
// nakedOnce rule — NAKs the gap exactly once, and the sender recovers
// by NAK-triggered go-back-N without ever hitting the retransmit timer.
func TestGoBackNNaksOncePerLossEvent(t *testing.T) {
	eng, w, a, b, epA, epB := rdmaBed(t, nic.DefaultParams(), 16<<10)

	plan := faults.NewPlan(7, faults.Config{WireDropNth: []int64{3}, WireDir: 1})
	plan.AttachLink(&w.Link, eng, eng)

	var msgs [][]byte
	epB.OnMessage = func(data []byte) { msgs = append(msgs, append([]byte(nil), data...)) }
	msg := patterned(8 << 10) // 8 MTU-size packets
	epA.Send(msg)
	eng.Run()

	if plan.Injected.WireDropped != 1 {
		t.Fatalf("injected %d deterministic drops, want 1", plan.Injected.WireDropped)
	}
	if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatalf("message not delivered exactly once intact (%d msgs)", len(msgs))
	}
	if got := b.NIC.Stats.Drops[nic.DropRDMAOutOfOrder]; got != 1 {
		t.Fatalf("receiver recorded %d out-of-order loss events (NAKs), want exactly 1", got)
	}
	if got := a.NIC.Stats.Drops[nic.DropRDMATimeout]; got != 0 {
		t.Fatalf("sender took %d timeout retransmits; NAK recovery should beat the timer", got)
	}
}

// TestWindowClampsUnderAckBlackhole blackholes every B->A frame (all
// ACKs lost) while A sends a 160-packet message: the sender must stop
// at exactly defaultQPWindow (128) packets in flight and hold there
// until the retransmit timer fires.
func TestWindowClampsUnderAckBlackhole(t *testing.T) {
	eng, w, a, _, epA, _ := rdmaBed(t, nic.DefaultParams(), 256<<10)

	plan := faults.NewPlan(7, faults.Config{WireLoss: 1, WireDir: 2})
	plan.AttachLink(&w.Link, eng, eng)

	epA.Send(patterned(160 << 10)) // 160 packets, well past the window
	// Default RetransmitTimeout is 100us after the first transmission;
	// sample the clamp just before any retransmission can happen.
	eng.RunUntil(95 * flexdriver.Microsecond)

	const window = 128 // nic's defaultQPWindow
	if got := a.NIC.Stats.TxPackets; got != window {
		t.Fatalf("sender transmitted %d packets under ACK blackhole, want window clamp %d", got, window)
	}
	if got := w.Sent[0]; got != window {
		t.Fatalf("wire carried %d A->B frames, want %d", got, window)
	}
	if out := epA.QP.Outstanding(); out < window {
		t.Fatalf("only %d packets outstanding, want >= %d", out, window)
	}
}

// TestBoundedRetryEntersErrorAndReconnects keeps the ACK blackhole up
// until the sender exhausts its retry budget: the QP must enter the
// Error state after exactly MaxRetransmits+1 timeouts, flush the
// in-flight message with an error CQE, and — once the fault lifts and
// the driver runs ReconnectQPs — deliver new traffic again.
func TestBoundedRetryEntersErrorAndReconnects(t *testing.T) {
	prm := nic.DefaultParams()
	prm.MaxRetransmits = 3
	eng, w, a, _, epA, epB := rdmaBed(t, prm, 16<<10)

	plan := faults.NewPlan(7, faults.Config{WireLoss: 1, WireDir: 2})
	plan.AttachLink(&w.Link, eng, eng)

	// Note the blackhole only kills B->A frames: the data itself still
	// reaches B and is delivered; it is the *sender* that, unable to see
	// ACKs, retries and errors out.
	var msgs [][]byte
	epB.OnMessage = func(data []byte) { msgs = append(msgs, append([]byte(nil), data...)) }
	epA.Send(patterned(4 << 10))
	eng.Run()

	if got := epA.QP.State(); got != nic.QueueError {
		t.Fatalf("QP state = %v after retry budget exhausted, want error", got)
	}
	// retries 1..MaxRetransmits retransmit; the next timeout trips the
	// budget. Every one is visible as a counted timeout drop.
	if got := a.NIC.Stats.Drops[nic.DropRDMATimeout]; got != int64(prm.MaxRetransmits)+1 {
		t.Fatalf("recorded %d timeout retransmits, want %d", got, prm.MaxRetransmits+1)
	}
	if a.NIC.Stats.QueueErrors != 1 {
		t.Fatalf("QueueErrors = %d, want 1", a.NIC.Stats.QueueErrors)
	}
	if a.Drv.CQEErrors != 1 || a.Drv.TxErrors != 1 {
		t.Fatalf("driver saw CQEErrors=%d TxErrors=%d, want 1/1 (flushed message)",
			a.Drv.CQEErrors, a.Drv.TxErrors)
	}

	// Driver-initiated recovery: lift the fault, reconnect, resend.
	w.Loss = nil
	nic.ReconnectQPs(epA.QP, epB.QP)
	if a.NIC.Stats.QueueRecoveries == 0 {
		t.Fatal("reconnect did not record a recovery")
	}
	msg := patterned(2 << 10)
	epA.Send(msg)
	eng.Run()
	if epA.QP.State() != nic.QueueReady {
		t.Fatalf("QP not Ready after reconnect: %v", epA.QP.State())
	}
	if len(msgs) == 0 || !bytes.Equal(msgs[len(msgs)-1], msg) {
		t.Fatalf("post-reconnect message not delivered intact (%d msgs)", len(msgs))
	}
}
