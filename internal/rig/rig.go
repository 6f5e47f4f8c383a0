// Package rig is the one place that knows how a run is assembled, phased
// and sampled. Every experiment — the scenario fuzzer's generated runs,
// the exps cluster, chaos, failover, tenancy and kvserve reproductions,
// and the paper's back-to-back ones on a facade pair or node — is drawn
// from the same five stages:
//
//	rack      New, AddServer / ManageTenants, AddClient / AddAggregatedClient, PinFDB
//	load      OpenLoop (OpenLoopN ends on a count) over Client.Send or any send;
//	          PingPong keeps one request in flight
//	supervise Supervise: a watchdog Control sweeping every recovery loop
//	quiesce   Quiesce (or Window for measured, fault-free points)
//	judge     Ledger.Tally, Reconcile, the caller's own checks
//
// The rig owns each stage once and takes what varies — the AFU, the frame
// shape, the sweep, the judgement — as values the caller passes in. It has
// no switches of its own.
package rig

import (
	"flexdriver"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// Rig is a switched testbed under construction or running: the cluster
// and the telemetry registry every node reports into.
type Rig struct {
	*flexdriver.Cluster
}

// New starts an empty rig with a fresh telemetry registry (Telemetry
// returns it); opts configure every node it will rack.
func New(opts ...flexdriver.Option) *Rig {
	opts = append(opts, flexdriver.WithTelemetry(flexdriver.NewRegistry()))
	return &Rig{Cluster: flexdriver.NewCluster(opts...)}
}

// Server is an Innova whose FLD cores all run as plain Ethernet cores
// behind one RSS TIR.
type Server struct {
	*flexdriver.Innova
	RTs []*flexdriver.Runtime
}

// AddServer racks an Innova with the given number of FLD cores, starts
// each as an Ethernet core and lets install put the AFU on it. Wire
// ingress reaches the cores only once Steer says which frames.
func (r *Rig) AddServer(name string, cores int, install func(*flexdriver.FLD)) *Server {
	inn := r.AddInnova(name)
	s := &Server{Innova: inn, RTs: []*flexdriver.Runtime{inn.RT}}
	for i := 1; i < cores; i++ {
		_, rt := inn.AddFLD(inn.FLD.Config())
		s.RTs = append(s.RTs, rt)
	}
	for _, rt := range s.RTs {
		rt.StartEth()
		install(rt.FLD())
	}
	return s
}

// tir spreads frames over the runtimes' receive queues by RSS.
func tir(rts []*flexdriver.Runtime) *nic.TIR {
	t := &nic.TIR{}
	for _, rt := range rts {
		t.RQs = append(t.RQs, rt.RQ())
	}
	return t
}

// Steer installs the wire-ingress rule that delivers the frames rule
// matches (after any action it names, such as decap) to the cores' TIR —
// and only those addressed to this server. An AFU that answers by
// reversing the headers answers a flooded foreign frame with *that
// node's* source MAC, which poisons the switch's learned FDB; scoping
// the rule here means no caller can forget to.
func (s *Server) Steer(rule flexdriver.Rule) {
	rule.Match.DstIP = &s.NIC.IP
	rule.Action.ToTIR = tir(s.RTs)
	s.NIC.ESwitch().AddRule(0, rule)
}

// Kick is the watchdog edge of every core's recovery ladder: a core with
// a silently errored queue (a crashed device cannot DMA the CQE that
// would announce it), or a crash it has not resynchronised from, opens an
// episode.
func (s *Server) Kick() {
	for _, rt := range s.RTs {
		rt.Kick()
	}
}

// Tenants is a server under the tenancy control plane, one service port
// per tenant.
type Tenants struct {
	*flexdriver.Innova
	TM    *flexdriver.TenantManager
	Names []string
	Ports []uint16
}

// ManageTenants racks an Innova whose cores and NIC queues the tenancy
// reconciler carves into per-tenant slices. Each runtime a tenant is
// given starts as an Ethernet core running install's AFU; wire ingress is
// steered by destination port into the tenant's own RQs and rebuilt on
// every provision and drain change, so a draining tenant stops receiving
// new frames (eSwitch misses count as reasoned drops, and the cutoff is
// what lets a drain complete under open-loop load).
func (r *Rig) ManageTenants(name string, seed int64, names []string, ports []uint16,
	install func(tenant string, f *flexdriver.FLD)) *Tenants {
	inn := r.AddInnova(name)
	t := &Tenants{Innova: inn, TM: r.Cluster.ManageTenants(inn, seed), Names: names, Ports: ports}
	reSteer := func() {
		esw := inn.NIC.ESwitch()
		esw.ClearTable(0)
		for i, tenant := range names {
			rts := t.TM.Runtimes(tenant)
			if t.TM.Draining(tenant) || len(rts) == 0 {
				continue
			}
			dp := ports[i]
			esw.AddRule(0, flexdriver.Rule{
				Match:  flexdriver.Match{DstPort: &dp},
				Action: flexdriver.Action{ToTIR: tir(rts)}})
		}
	}
	started := make(map[*flexdriver.Runtime]bool)
	t.TM.SetProvision(func(tenant string, _ flexdriver.TenantSpec, rts []*flexdriver.Runtime) {
		for _, rt := range rts {
			if started[rt] {
				continue // bandwidth-only re-slice: the data plane stands
			}
			started[rt] = true
			rt.StartEth()
			install(tenant, rt.FLD())
		}
		reSteer()
	})
	t.TM.SetOnDrainChange(func(string) { reSteer() })
	return t
}

// EachRuntime visits every tenant runtime in tenant order (not map
// order, which would make sweeps nondeterministic).
func (t *Tenants) EachRuntime(visit func(tenant string, i int, rt *flexdriver.Runtime)) {
	for _, name := range t.Names {
		for i, rt := range t.TM.Runtimes(name) {
			visit(name, i, rt)
		}
	}
}

// Kick is the node's watchdog edge: the PF's and every tenant's runtime
// ladder, then the reconciler's, in case an episode was abandoned
// mid-storm.
func (t *Tenants) Kick() {
	t.RT.Kick()
	t.EachRuntime(func(_ string, _ int, rt *flexdriver.Runtime) { rt.Kick() })
	t.TM.Reconciler().Kick()
}

// Client is one traffic-carrying host: a software port steered on the
// host's own IP, an 8-byte send ordinal stamped at StampOff and read back
// at RecvOff (they differ only when the server strips an encapsulation),
// and the per-ordinal Ledger the two feed. Everything is private to the
// host while the cluster runs.
type Client struct {
	Ledger
	Host *flexdriver.Host
	Port *flexdriver.EthPort
	// Flows are the frame templates Send round-robins (discrete clients;
	// an aggregated source keeps its own).
	Flows             [][]byte
	StampOff, RecvOff int
	// Short counts replies too short to carry the ordinal.
	Short int64
	frame []byte // Send's stamped copy; the port copies it in turn
}

// AddClient racks a discrete client host stamping at off.
func (r *Rig) AddClient(name string, off int) *Client {
	h := r.AddHost(name)
	return &Client{Host: h, StampOff: off, RecvOff: off,
		Port: h.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})}
}

// AddAggregatedClient racks one host carrying cfg's aggregated source.
// Every frame the source emits takes the host-level ordinal (the ledger
// spans all the clients the host carries) before cfg.OnSend sees it.
func (r *Rig) AddAggregatedClient(name string, off int, cfg flexdriver.AggregatedClientsConfig) *Client {
	c := &Client{StampOff: off, RecvOff: off}
	onSend := cfg.OnSend
	cfg.OnSend = func(ci int, f []byte) {
		c.Stamp(f)
		if onSend != nil {
			onSend(ci, f)
		}
	}
	src := r.AddAggregatedClients(name, cfg)
	c.Host, c.Port = src.Host, src.Port
	return c
}

// Stamp issues the next ordinal and writes it into f.
func (c *Client) Stamp(f []byte) { Stamp(f, c.StampOff, c.Issue(c.Host.Engine().Now())) }

// Send posts a stamped copy of the next flow template.
func (c *Client) Send() {
	c.frame = append(c.frame[:0], c.Flows[int(c.Sent())%len(c.Flows)]...)
	c.Stamp(c.frame)
	c.Port.Send(c.frame)
}

// Truncated reports (and counts) a reply too short to carry the ordinal.
func (c *Client) Truncated(fr []byte) bool {
	if len(fr) < c.RecvOff+8 {
		c.Short++
		return true
	}
	return false
}

// Deliver enters a reply into the ledger and returns its round-trip time;
// ok is false for a truncated reply or an ordinal this client never sent.
func (c *Client) Deliver(fr []byte) (rtt sim.Duration, ok bool) {
	if c.Truncated(fr) {
		return 0, false
	}
	at, ok := c.Ledger.Deliver(Unstamp(fr, c.RecvOff))
	return c.Host.Engine().Now() - at, ok
}

// AddSupervisor gives a host driver its crash-recovery ladder, reporting
// under <host>/supervisor, for the caller's sweep to kick. The seed feeds
// only backoff jitter, so it never perturbs traffic draws.
func (r *Rig) AddSupervisor(h *flexdriver.Host, seed int64) *flexdriver.Supervisor {
	sup := flexdriver.NewSupervisor(h.Drv, seed)
	sup.SetTelemetry(r.Telemetry().Scope(h.Name()).Scope("supervisor"))
	return sup
}

// EachNode visits every racked node, Innovas first, in racking order.
func (r *Rig) EachNode(visit func(name string, n *flexdriver.NIC, fab *pcie.Fabric)) {
	for _, inn := range r.Innovas {
		visit(inn.Name(), inn.NIC, inn.Fab)
	}
	for _, h := range r.Hosts {
		visit(h.Name(), h.NIC, h.Fab)
	}
}

// PinFDB programs every racked node's MAC onto its switch port, so no
// frame ever floods: per-ordinal accounting then has no benign flood
// copies to excuse, and a dead node's traffic dies at its own port.
func (r *Rig) PinFDB() {
	r.EachNode(func(_ string, n *flexdriver.NIC, _ *pcie.Fabric) {
		r.Switch().Program(n.MAC, r.PortOf(n))
	})
}

// Supervise runs the watchdog: from `from`, every `every` until `until`,
// call sweep — the pass that kicks every recovery ladder (host
// supervisors, FLD runtimes, reconcilers), catching the Error-state
// queues whose announcing CQE was itself lost, and reconnects transports
// that take both ends. The pass may touch every node, so it runs as a
// cluster Control: every earlier event has run and the clock reads the tick.
func (r *Rig) Supervise(from sim.Time, every sim.Duration, until sim.Time, sweep func()) {
	var tick func()
	tick = func() {
		sweep()
		if r.Now() < until {
			r.Control(r.Now()+every, tick)
		}
	}
	r.Control(from, tick)
}

// Quiesce runs through deadline, drains in-flight work, gives recovery
// one final pass in case an error surfaced after the watchdog's last
// tick, and drains whatever that pass scheduled.
func (r *Rig) Quiesce(deadline sim.Time, sweep func()) {
	r.RunUntil(deadline)
	r.Run()
	sweep()
	r.Run()
}

// TailDrops sums the switch's output-queue tail drops over every port.
func (r *Rig) TailDrops() int64 {
	var n int64
	for _, p := range r.Switch().Ports() {
		n += p.Counters.TailDrops
	}
	return n
}
