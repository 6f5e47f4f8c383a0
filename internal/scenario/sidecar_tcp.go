package scenario

import (
	"flexdriver"
	"flexdriver/internal/nic"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// tcpSidecar rides along with any Proto: tcp0 streams rpc-framed records
// to tcp1 over the reliable byte-stream transport (internal/tcp) — the
// go-back-N counterpart of the RDMA sidecar, exercising retransmission,
// zero-window handling and the retry-exceeded → reconnect escalation
// under the full fault mix. A record's ID is its ordinal and its 64, 128
// or 256 B value the verification pattern. The modest stream window makes
// a stalled connection overflow into queued (flushable) messages quickly —
// what the planted ack-drop defect needs to surface as lost deliveries.
type tcpSidecar struct {
	stream
	a, b *swdriver.TCPEndpoint
	sups [2]*flexdriver.Supervisor
	eng  *flexdriver.Engine // tcp0's engine
	dec  rpc.Decoder
}

func (p *tcpSidecar) build(rn *run) {
	ha, hb := rn.AddHost("tcp0"), rn.AddHost("tcp1")
	p.eng = ha.Engine()
	conn := func(sport, dport uint16) swdriver.TCPConfig {
		return swdriver.TCPConfig{Conn: tcp.Config{SrcPort: sport, DstPort: dport, Window: 8192}}
	}
	p.a, p.b = ha.Drv.NewTCPEndpoint(conn(9100, 9101)), hb.Drv.NewTCPEndpoint(conn(9101, 9100))
	p.a.DropAcksAfterN = rn.spec.PlantAckDropNth
	p.b.Conn.OnDeliver = func(data []byte) {
		for _, fr := range p.dec.Feed(data) {
			p.arrived(int64(fr.ID), intact(fr.Val, 0, int64(fr.ID)))
		}
		p.b.Conn.Consume(len(data))
	}
	// A reconnect starts a fresh stream incarnation; the decoder must
	// drop its partial frame or it would splice bytes across epochs.
	p.b.OnReconnect = p.dec.Reset
	swdriver.ConnectTCPEndpoints(p.a, p.b)
	p.sups = [2]*flexdriver.Supervisor{rn.AddSupervisor(ha, rn.spec.Seed*8191+102),
		rn.AddSupervisor(hb, rn.spec.Seed*8191+103)}
}

func (p *tcpSidecar) start(rn *run) {
	rng := sim.NewRand(rn.spec.Seed * 52711)
	valBytes := 64 << rng.Intn(3)
	p.drive(rn, p.eng, rng, valBytes+16, func(seq int64) {
		val := make([]byte, valBytes)
		fill(val, 0, seq)
		p.a.Send(rpc.Frame{Op: rpc.OpPut, ID: uint64(seq), Val: val}.Marshal(nil))
	})
}

// sweep kicks both hosts' supervisors and reconnects a connection that
// burned its retry budget.
func (p *tcpSidecar) sweep() {
	p.sups[0].Kick()
	p.sups[1].Kick()
	if p.a.Conn.State() == tcp.StateError || p.b.Conn.State() == tcp.StateError {
		swdriver.ReconnectTCPEndpoints(p.a, p.b)
	}
}

func (p *tcpSidecar) gather(_ *run, j *judgement) {
	j.res.TCPSent, j.res.TCPDelivered = p.sent.Sent(), p.delivered
}

// check: on a fault-free run every message must arrive — a stalled
// connection that burns its retry budget and flushes queued messages
// (the planted ack-drop defect) surfaces as missing deliveries with no
// fault to excuse them.
func (p *tcpSidecar) check(_ *run, j *judgement) {
	p.judge("tcp", j)
	for i, ep := range []*swdriver.TCPEndpoint{p.a, p.b} {
		if ep.Port().SQ().State() != nic.QueueReady || ep.Port().RQ().State() != nic.QueueReady {
			j.bad("queues-recovered", "TCP sidecar endpoint %d has rings not in Ready", i)
		}
	}
}
