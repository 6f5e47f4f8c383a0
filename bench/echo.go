package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/echo"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// Phasing shared by the echo workloads: only sends inside
// [warmup, warmup+window) feed the RTT and goodput numbers; the drain
// lets the last frames return before the run goes to quiescence.
const (
	echoWarmup = 100 * sim.Microsecond
	echoDrain  = 150 * sim.Microsecond
)

// poissonSender is one open-loop Poisson source on a host engine. The
// offered load is fixed in sim time, so a slow host machine never
// changes what the simulator is asked to do.
type poissonSender struct {
	g    *echoGen
	port *swdriver.EthPort
	rng  *sim.Rand
	mean sim.Duration
	stop sim.Time
	m    *meter
}

func poissonTick(a any) {
	s := a.(*poissonSender)
	if s.g.eng.Now() >= s.stop {
		return
	}
	t := s.m.genEnter()
	f := s.g.next()
	s.m.genSendExit(t)
	s.port.Send(f)
	s.g.eng.AfterArg(s.rng.Exp(s.mean), poissonTick, s)
}

func (s *poissonSender) start() { s.g.eng.AfterArg(s.rng.Exp(s.mean), poissonTick, s) }

// echoResults folds the generators into the outcome: ops, failures, the
// raw sim-time numbers, and the spill check.
func echoResults(o *outcome, gens []*echoGen, window sim.Duration) {
	var lat []float32
	var rxB, spill int64
	for _, g := range gens {
		o.Attempted += g.sent
		o.Ops += g.recv
		rxB += g.rxB
		spill += g.spill
		lat = append(lat, g.lat...)
	}
	o.Failed = o.Attempted - o.Ops
	o.Model = rttModel(lat, rxB, window)
	o.check("generator_ring", spill == 0, "%d sends outran the preallocated frame ring", spill)
}

// runEcho64 is echo64_pair: the paper's remote testbed (client host
// cabled to an Innova server, no switch, one colocated engine), FLD-E
// echo AFU, 64 B UDP at 80 % of the perfmodel 64 B bound.
func runEcho64(cfg runConfig, m *meter) outcome {
	const size = 64
	window := scaled(3*sim.Millisecond, cfg.Scale, 50*sim.Microsecond)

	m.begin("setup.new_cluster")
	reg := flexdriver.NewRegistry()
	rp := flexdriver.NewRemotePair(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(reg),
		flexdriver.WithWorkers(cfg.Workers))
	m.end()

	m.begin("setup.add_server")
	srv := rp.Server
	srv.RT.CreateEthTxQueue(0, nil)
	flexdriver.NewEControlPlane(srv.RT).InstallDefaultEgressToWire()
	srv.RT.Start()
	echo.New(srv.FLD)
	m.end()

	m.begin("setup.add_clients")
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	model := perfmodel.DefaultEchoModel(25)
	model.PpsCap = 31.25e6
	offered := 0.8 * model.Goodput(size) // Gbit/s
	mean := sim.Duration(float64(size*8) / (offered * 1e9) * float64(sim.Second))
	stop := echoWarmup + window
	expect := int(float64(stop) / float64(mean))
	g := newEchoGen(rp.Engine(), [][]byte{udpFrame(rp.Client.NIC, srv.NIC, 4000, 7777, size)},
		expect, echoWarmup, stop)
	port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
		t := m.genEnter()
		g.onEcho(fr)
		m.genRxExit(t)
	}
	snd := &poissonSender{g: g, port: port, rng: sim.NewRand(cfg.Seed), mean: mean, stop: stop, m: m}
	snd.start()
	m.end()

	m.begin("setup.rules")
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	m.end()

	if !m.ready() {
		return outcome{}
	}
	runPhases(m, echoWarmup, stop, stop+echoDrain, rp.RunUntil, rp.Run)

	var o outcome
	m.begin("snapshot")
	snap := reg.Snapshot()
	cl := rp.Cluster()
	settle(&o, snap, []fabNode{{"client", rp.Client.Fab}, {"server", srv.Fab}}, cl.Pending(), cl.Engines())
	m.end()
	echoResults(&o, []*echoGen{g}, window)
	ledger(&o, snap, cl.Group().Stats(), "server")
	toFPGA, toNIC := model.PerPacketBytes(size)
	o.ModelErrPct = relErrPct(o.Counts["count.pcie.wire_bytes_per_op"], float64(toFPGA+toNIC))
	return o
}

// swapEchoAFU is the cluster's echo: replies are re-addressed to their
// sender (a verbatim echo would hairpin into the switch's source
// filter). FLD.Send copies into its buffer pool, so one scratch frame
// per core is enough.
type swapEchoAFU struct {
	f       *flexdriver.FLD
	scratch []byte
}

func (a *swapEchoAFU) Receive(data []byte, md flexdriver.Metadata) {
	out := a.scratch[:len(data)]
	copy(out, data)
	swapEcho(out)
	// A credit stall is open-loop loss: the echo never returns and the
	// client counts a failed op.
	_ = a.f.Send(0, out, md)
}

// buildEchoServer racks the multi-core server both cluster-shaped
// workloads share: cores FLD cores behind one RSS TIR, install called
// per core.
func buildEchoServer(cl *flexdriver.Cluster, cores int, install func(rt *flexdriver.Runtime)) *flexdriver.Innova {
	srv := cl.AddInnova("server")
	rts := []*flexdriver.Runtime{srv.RT}
	for i := 1; i < cores; i++ {
		_, rt := srv.AddFLD(srv.FLD.Config())
		rts = append(rts, rt)
	}
	var rqs []*nic.RQ
	for _, rt := range rts {
		rt.CreateEthTxQueue(0, nil)
		flexdriver.NewEControlPlane(rt).InstallDefaultEgressToWire()
		rt.Start()
		install(rt)
		rqs = append(rqs, rt.RQ())
	}
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{
		Action: flexdriver.Action{ToTIR: &nic.TIR{RQs: rqs}}})
	return srv
}

// balancedFlows picks source ports whose RSS hash spreads a client's
// flows evenly over the server's cores — a generator with enough flow
// entropy for RSS to balance (§9).
func balancedFlows(src, dst *flexdriver.NIC, flows, cores, size int) [][]byte {
	per := (flows + cores - 1) / cores
	count := make([]int, cores)
	var out [][]byte
	for sport := uint16(4000); len(out) < per*cores && sport < 65000; sport++ {
		f := udpFrame(src, dst, sport, 7777, size)
		if b := int(netpkt.RSSHash(f)) % cores; count[b] < per {
			count[b]++
			out = append(out, f)
		}
	}
	return out
}

// programFDB pins every node's MAC to its switch port. Without it the
// first frames flood, hosts drop the copies not addressed to them, and
// nic.drop registers its per-reason counter lazily on the registry the
// shards share — a concurrent map write at Workers ≥ 2 (README, "Known
// exclusions"). A static FDB keeps the drop path, and so the race, out
// of the measured topologies; the no_nic_drops check holds that line.
func programFDB(cl *flexdriver.Cluster) {
	sw := cl.Switch()
	for _, inn := range cl.Innovas {
		sw.Program(inn.NIC.MAC, cl.PortOf(inn.NIC))
	}
	for _, h := range cl.Hosts {
		sw.Program(h.NIC.MAC, cl.PortOf(h.NIC))
	}
}

// clusterNodes lists every node's fabric for reconciliation.
func clusterNodes(cl *flexdriver.Cluster) []fabNode {
	var nodes []fabNode
	for _, inn := range cl.Innovas {
		nodes = append(nodes, fabNode{inn.Name(), inn.Fab})
	}
	for _, h := range cl.Hosts {
		nodes = append(nodes, fabNode{h.Name(), h.Fab})
	}
	return nodes
}

// runCluster16 is cluster16_switch: 16 discrete hosts, each an open-loop
// Poisson source of 512 B frames at 1.2 Gbit/s (19.2 Gbit/s, 80 % of
// the 24.06 Gbit/s Ethernet bound, so the run is lossless and latency
// means something), through the ToR switch into 4 FLD cores behind RSS.
func runCluster16(cfg runConfig, m *meter) outcome {
	const (
		hosts = 16
		cores = 4
		size  = 512
		flows = 32
	)
	perGbps := 1.2
	window := scaled(15*sim.Millisecond, cfg.Scale, 50*sim.Microsecond)

	m.begin("setup.new_cluster")
	reg := flexdriver.NewRegistry()
	cl := flexdriver.NewCluster(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(reg),
		flexdriver.WithWorkers(cfg.Workers),
		flexdriver.WithColocated(cfg.Colocate),
	).SwitchQueueFrames(64)
	m.end()

	m.begin("setup.add_server")
	srv := buildEchoServer(cl, cores, func(rt *flexdriver.Runtime) {
		rt.FLD().SetHandler(&swapEchoAFU{f: rt.FLD(), scratch: make([]byte, 2048)})
	})
	m.end()

	stop := echoWarmup + window
	mean := sim.Duration(float64(size*8) / (perGbps * 1e9) * float64(sim.Second))
	expect := int(float64(stop) / float64(mean))
	gens := make([]*echoGen, hosts)
	ports := make([]*swdriver.EthPort, hosts)
	m.begin("setup.add_clients")
	for i := range gens {
		h := cl.AddHost(fmt.Sprintf("client%d", i))
		ports[i] = h.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
		g := newEchoGen(h.Engine(), balancedFlows(h.NIC, srv.NIC, flows, cores, size),
			expect, echoWarmup, stop)
		gens[i] = g
		ports[i].OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			t := m.genEnter()
			g.onEcho(fr)
			m.genRxExit(t)
		}
		snd := &poissonSender{g: g, port: ports[i], rng: sim.NewRand(cfg.Seed*1000 + int64(i)),
			mean: mean, stop: stop, m: m}
		snd.start()
	}
	m.end()

	m.begin("setup.rules")
	for i, h := range cl.Hosts {
		ip := h.NIC.IP
		h.NIC.ESwitch().AddRule(0, flexdriver.Rule{
			Match:  flexdriver.Match{DstIP: &ip},
			Action: flexdriver.Action{ToRQ: ports[i].RQ()}})
	}
	programFDB(cl)
	m.end()

	if !m.ready() {
		return outcome{}
	}
	runPhases(m, echoWarmup, stop, stop+echoDrain, cl.RunUntil, cl.Run)

	var o outcome
	m.begin("snapshot")
	snap := reg.Snapshot()
	settle(&o, snap, clusterNodes(cl), cl.Pending(), cl.Engines())
	m.end()
	echoResults(&o, gens, window)
	ledger(&o, snap, cl.Group().Stats(), "server")
	o.check("no_nic_drops", o.Counts["count.nic.drops"] == 0, "%v frames dropped at a NIC", o.Counts["count.nic.drops"])
	em := perfmodel.DefaultEchoModel(25)
	toFPGA, toNIC := em.PerPacketBytes(size)
	o.ModelErrPct = relErrPct(o.Counts["count.pcie.wire_bytes_per_op"], float64(toFPGA+toNIC))
	return o
}
