package scenario

import (
	"flexdriver"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
)

// stream is a transport sidecar's message accounting: a host pair on the
// same switch runs a reliable message stream, so the go-back-N transport
// shares the fabric (and its faults) with the echo traffic. The receive
// callback runs on the receiver while the send ordinal lives on the
// sender, so delivered ordinals are collected raw and judged against the
// final send count after the run — neither end reads the other's
// bookkeeping. (The send count only grows, so judging ghosts
// against its final value is equivalent to the at-delivery check.)
type stream struct {
	sent rig.Ledger // the sender's

	// the receiver's
	delivered, corrupt int64
	seqs               []int64
}

// fill writes (and intact checks) the ordinal-keyed byte pattern a
// message carries from offset from on, so a delivered message proves
// byte-exact end-to-end transport through retransmission and recovery.
func fill(msg []byte, from int, seq int64) {
	for i := from; i < len(msg); i++ {
		msg[i] = byte(int64(i)*7 + seq)
	}
}

func intact(msg []byte, from int, seq int64) bool {
	for i := from; i < len(msg); i++ {
		if msg[i] != byte(int64(i)*7+seq) {
			return false
		}
	}
	return true
}

// drive starts the sender: Poisson messages at 1.5 Gbit/s of wireBytes
// each until the scenario's stop line; send gets each fresh ordinal.
func (st *stream) drive(rn *run, eng *flexdriver.Engine, rng *sim.Rand, wireBytes int, send func(seq int64)) {
	gap := rig.Poisson(rng, sim.Duration(float64(wireBytes*8)/1.5e9*float64(sim.Second)))
	rig.OpenLoop(eng, gap(), rn.stop, 1, gap, func() { send(st.sent.Issue(eng.Now())) })
}

func (st *stream) arrived(seq int64, ok bool) {
	st.delivered++
	if !ok {
		st.corrupt++
	}
	st.seqs = append(st.seqs, seq)
}

// judge states the transport's laws under the name prefix: it may lose
// messages only to injected faults, must never corrupt one, and must
// never deliver a message that was not sent.
func (st *stream) judge(name string, j *judgement) {
	for _, seq := range st.seqs {
		st.sent.Deliver(seq)
	}
	sent := st.sent.Sent()
	if st.corrupt > 0 {
		j.bad(name+"-corruption", "%d delivered messages failed byte verification", st.corrupt)
	}
	if st.sent.Ghosts > 0 || st.delivered > sent {
		j.bad(name+"-ghost", "delivered %d messages, sent %d (%d with unsent ordinals)",
			st.delivered, sent, st.sent.Ghosts)
	}
	if j.res.Injected.Total() == 0 && st.delivered != sent {
		j.bad(name+"-delivery", "fault-free run delivered %d of %d messages", st.delivered, sent)
	}
}
