package scenario

import (
	"flexdriver"
	"flexdriver/internal/nic"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// rdmaSidecar is the RC transport's stream: rdma0 sends 1, 2 or 4 KiB
// messages to rdma1, each carrying its ordinal in the first 8 bytes and
// the verification pattern behind it.
type rdmaSidecar struct {
	stream
	a, b *swdriver.RDMAEndpoint
	sups [2]*flexdriver.Supervisor
	eng  *flexdriver.Engine // rdma0's engine
}

func (p *rdmaSidecar) build(rn *run) {
	ha, hb := rn.AddHost("rdma0"), rn.AddHost("rdma1")
	p.eng = ha.Engine()
	cfg := swdriver.RDMAConfig{SendEntries: 64, RecvEntries: 64, MaxMsgBytes: 32 << 10, MTU: 1024}
	p.a, p.b = ha.Drv.NewRDMAEndpoint(cfg), hb.Drv.NewRDMAEndpoint(cfg)
	nic.ConnectQPs(p.a.QP, p.b.QP)
	p.b.OnMessage = func(msg []byte) {
		if len(msg) < 8 {
			p.arrived(0, false)
			return
		}
		seq := rig.Unstamp(msg, 0)
		p.arrived(seq, intact(msg, 8, seq))
	}
	// The hosts get ladders too; QP reconnection takes both nodes, so
	// it stays in the sweep.
	p.sups = [2]*flexdriver.Supervisor{rn.AddSupervisor(ha, rn.spec.Seed*8191+100),
		rn.AddSupervisor(hb, rn.spec.Seed*8191+101)}
}

func (p *rdmaSidecar) start(rn *run) {
	rng := sim.NewRand(rn.spec.Seed * 31337)
	msgBytes := 1024 << rng.Intn(3)
	p.drive(rn, p.eng, rng, msgBytes, func(seq int64) {
		msg := make([]byte, msgBytes)
		rig.Stamp(msg, 0, seq)
		fill(msg, 8, seq)
		p.a.Send(msg)
	})
}

// sweep kicks both hosts' supervisors and reconnects a QP pair stuck in
// Error (a modify-QP cycle).
func (p *rdmaSidecar) sweep() {
	p.sups[0].Kick()
	p.sups[1].Kick()
	if p.a.QP.State() != nic.QueueReady || p.b.QP.State() != nic.QueueReady {
		swdriver.ReconnectEndpoints(p.a, p.b)
	}
}

func (p *rdmaSidecar) gather(_ *run, j *judgement) {
	j.res.RDMASent, j.res.RDMADelivered = p.sent.Sent(), p.delivered
}

func (p *rdmaSidecar) check(_ *run, j *judgement) {
	p.judge("rdma", j)
	for i, ep := range []*swdriver.RDMAEndpoint{p.a, p.b} {
		if ep.QP.State() != nic.QueueReady ||
			ep.QP.SQ.State() != nic.QueueReady || ep.QP.RQ.State() != nic.QueueReady {
			j.bad("queues-recovered", "RDMA sidecar endpoint %d has rings not in Ready", i)
		}
	}
}
