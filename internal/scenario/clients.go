package scenario

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/nic"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// flowsPerClient is each client's flow-set size (sport/size variety for
// RSS spread).
const flowsPerClient = 6

// framing is how one client talks to the server part it is racked
// against: where it sends, how a request frame is built, where the send
// ordinal rides out and comes back, and what the server wants screened
// out of the ledger.
type framing struct {
	dport uint16
	// build makes flow fi's request template, size bytes on the wire
	// before any encapsulation.
	build func(src, dst *flexdriver.NIC, sport, dport uint16, size, fi int) []byte
	// stampOff is the ordinal's home in a request; recvOff in a reply
	// (they differ when the server's NIC strips an encapsulation).
	stampOff, recvOff int
	// screen (optional) sees every whole reply before the ledger does and
	// returns false to keep it out. It tallies into the client it is
	// handed — clients share no counter.
	screen func(c *echoClient, reply []byte) bool
}

// server is a part echo clients can be racked against.
type server interface {
	part
	nic() *flexdriver.NIC
	// framing describes global client gi's side of the protocol.
	framing(gi int) framing
}

// echoClients is the open-loop request load: Clients discrete hosts, or
// AggClients modeled clients folded onto AggHosts aggregated sources.
// Every request carries a send ordinal, so conservation is judged per
// frame, not from aggregate counts.
type echoClients struct {
	srv  server
	cs   []*echoClient
	sups []*flexdriver.Supervisor // one per client host
	// frng is flows' scratch stream, re-seeded per client: construction
	// is sequential, and a source per modelled client is ~5 KB.
	frng *sim.Rand
}

// echoClient is one traffic-carrying host's bookkeeping.
type echoClient struct {
	*rig.Client
	mean      sim.Duration // mean inter-frame gap at the spec's offered load
	delivered int64
	// leaks counts replies carrying a foreign tenant's identity (tenant
	// servers' screen; the zero-tolerance isolation invariant).
	leaks int64
}

// flows draws global client gi's flow set — sports and sizes off the
// client's own flow stream (Seed*7919+gi), built against the carrying
// host's NIC — and the mean inter-frame gap that offers PerClientGbps
// over it. Folding clients onto fewer hosts never reshuffles which flows
// a client owns, only which NIC carries them.
func (p *echoClients) flows(s Spec, h *flexdriver.Host, gi int) ([][]byte, sim.Duration) {
	fr := p.srv.framing(gi)
	if seed := s.Seed*7919 + int64(gi); p.frng == nil {
		p.frng = sim.NewRand(seed)
	} else {
		p.frng.Seed(seed)
	}
	var flows [][]byte
	var avgBits float64
	for fi := 0; fi < flowsPerClient; fi++ {
		sport := uint16(4000 + p.frng.Intn(20000))
		size := s.FrameMin
		if s.FrameMax > s.FrameMin {
			size += p.frng.Intn(s.FrameMax - s.FrameMin + 1)
		}
		f := fr.build(h.NIC, p.srv.nic(), sport, fr.dport, size, fi)
		flows = append(flows, f)
		avgBits += float64(len(f) * 8)
	}
	avgBits /= flowsPerClient
	return flows, sim.Duration(avgBits / (s.PerClientGbps * 1e9) * float64(sim.Second))
}

// add finishes a racked client: reply-side offsets, the receive hook
// (the server's screen, the planted-loss defect, then the ledger) and
// its place in the part.
func (p *echoClients) add(rn *run, rc *rig.Client, fr framing) *echoClient {
	c := &echoClient{Client: rc}
	rc.RecvOff = fr.recvOff
	plant := rn.spec.PlantLossNth
	rc.Port.OnReceive = func(reply []byte, _ swdriver.RxMeta) {
		if c.Truncated(reply) || (fr.screen != nil && !fr.screen(c, reply)) {
			return
		}
		c.delivered++
		if plant > 0 && c.delivered%plant == 0 {
			// The planted defect: a delivered frame vanishes before the
			// bookkeeping — a drop with no drop reason anywhere.
			return
		}
		c.Deliver(reply)
	}
	p.cs = append(p.cs, c)
	return c
}

func (p *echoClients) build(rn *run) {
	s := rn.spec
	if s.AggClients > 0 {
		// Hundred-node mode: each modeled client keeps the arrival stream
		// (Seed*1000+gi) and flow stream it would own as a discrete host;
		// conservation moves to host granularity — the ordinal is the
		// host's, so the ledger spans every client the host carries.
		for hi, span := range rig.Split(s.AggClients, s.AggHosts) {
			first, fr := span.First, p.srv.framing(span.First)
			p.add(rn, rn.AddAggregatedClient(fmt.Sprintf("client%d", hi), fr.stampOff,
				flexdriver.AggregatedClientsConfig{
					Clients:    span.N,
					StreamSeed: s.Seed*1000 + int64(first),
					Stop:       rn.stop,
					Setup: func(h *flexdriver.Host, ci int, rng *sim.Rand) flexdriver.ClientSetup {
						set := flexdriver.ClientSetup{}
						set.Flows, set.Mean = p.flows(s, h, first+ci)
						if s.Pattern == "bursty" {
							set.Burst = 8 + rng.Intn(25)
						}
						return set
					},
				}), fr)
		}
	} else {
		for ci := 0; ci < s.Clients; ci++ {
			fr := p.srv.framing(ci)
			c := p.add(rn, rn.AddClient(fmt.Sprintf("client%d", ci), fr.stampOff), fr)
			c.Flows, c.mean = p.flows(s, c.Host, ci)
		}
	}
	// The ladder is what turns a device/node crash (rings errored,
	// process restarted, device FLRed) back into Ready queues.
	for ci, c := range p.cs {
		p.sups = append(p.sups, rn.AddSupervisor(c.Host, s.Seed*8191+int64(ci)))
	}
}

// start begins the discrete clients' open-loop load: Poisson clients
// draw i.i.d. exponential gaps; bursty clients send fixed back-to-back
// trains at the same mean rate, stressing the switch queues and RQ refill
// paths. Aggregated sources scheduled themselves at construction.
func (p *echoClients) start(rn *run) {
	if rn.spec.AggClients > 0 {
		return
	}
	for ci, c := range p.cs {
		rng := sim.NewRand(rn.spec.Seed*1000 + int64(ci))
		burst := 1
		if rn.spec.Pattern == "bursty" {
			burst = 8 + rng.Intn(25)
		}
		gap := rig.Poisson(rng, c.mean*sim.Duration(burst))
		rig.OpenLoop(c.Host.Engine(), gap(), rn.stop, burst, gap, c.Send)
	}
}

// sweep kicks each client host's supervisor, whose first rung polls the
// port.
func (p *echoClients) sweep() {
	for _, sup := range p.sups {
		sup.Kick()
	}
}

func (p *echoClients) gather(_ *run, j *judgement) {
	var short int64
	for _, c := range p.cs {
		lost, dups := c.Tally()
		j.res.Sent += c.Sent()
		j.res.Lost += lost
		j.res.Dups += dups
		short += c.Short
	}
	j.excuse("short", short)
}

func (p *echoClients) check(_ *run, j *judgement) {
	// No ghost frames: a client must never receive a sequence number it
	// has not sent — no layer may manufacture packets.
	var ghosts int64
	for i, c := range p.cs {
		ghosts += c.Ghosts
		if c.Port.SQ().State() != nic.QueueReady || c.Port.RQ().State() != nic.QueueReady {
			j.bad("queues-recovered", "client%d port queues not in Ready", i)
		}
	}
	if ghosts > 0 {
		j.bad("ghost-frames", "%d frames delivered with sequence numbers never sent", ghosts)
	}
}
