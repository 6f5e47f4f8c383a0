package flexdriver

import (
	"fmt"

	"flexdriver/internal/faults"
	"flexdriver/internal/fld"
	"flexdriver/internal/fldsw"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/telemetry"
)

// Options is the internal carrier of testbed configuration. Callers
// configure it through functional options (WithFLD, WithLink,
// WithTelemetry, ...); zero-valued fields are replaced by the paper's
// defaults.
type Options struct {
	// FLD sizes the FlexDriver instance on Innova nodes.
	FLD FLDConfig
	// NIC tunes the adapter model.
	NIC NICParams
	// Driver tunes the CPU software-driver cost model.
	Driver DriverParams
	// Link is the PCIe configuration for host and FPGA fabric links.
	Link LinkConfig
	// Telemetry, when set, instruments every layer of the node into the
	// registry under `<node>/{pcie,nic,fld,swdriver}/...`. Nil (the
	// default) disables telemetry at zero cost to the hot paths.
	Telemetry *Registry
	// Faults, when set, attaches the deterministic fault-injection plan
	// to every layer the node builds (PCIe fabric, NIC, FLD, and — via
	// ConnectWire on the option-built pairs — the Ethernet wire). Nil
	// (the default) injects nothing.
	Faults *FaultPlan
}

// Option customizes testbed construction (the functional-options
// facade over the Options carrier).
type Option func(*Options)

// WithFLD sizes the FlexDriver instance on Innova nodes.
func WithFLD(cfg FLDConfig) Option { return func(o *Options) { o.FLD = cfg } }

// WithNIC tunes the adapter model.
func WithNIC(p NICParams) Option { return func(o *Options) { o.NIC = p } }

// WithDriver tunes the CPU software-driver cost model.
func WithDriver(p DriverParams) Option { return func(o *Options) { o.Driver = p } }

// WithLink sets the PCIe configuration for host and FPGA fabric links.
func WithLink(l LinkConfig) Option { return func(o *Options) { o.Link = l } }

// WithTelemetry instruments the node(s) into reg: per-link TLP
// counters, per-queue doorbell/WQE/CQE counters, FLD compression and
// buffer-pool metrics, and CPU-driver costs, all under
// `<node>/...` paths. Enable reg's flight recorder to also capture
// per-TLP events for Chrome-trace export.
func WithTelemetry(reg *Registry) Option { return func(o *Options) { o.Telemetry = reg } }

// WithFaults attaches a fault-injection plan: the plan's hooks are
// installed on every fabric/NIC/FLD the testbed builds (and on the wire
// for NewRemotePair), and the plan is bound to the engine clock so its
// Start/Stop window and link-flap schedule run on simulated time. One
// plan may serve several nodes; they share its seeded random stream.
func WithFaults(p *FaultPlan) Option { return func(o *Options) { o.Faults = p } }

// WithWorkers does nothing: a Cluster runs its one engine on the caller.
//
// Deprecated: bench/ is the only caller; ROADMAP 1(a)'s benchmark-only PR deletes it.
func WithWorkers(int) Option { return func(*Options) {} }

// WithColocated does nothing: every Cluster already runs its nodes and
// its switch on one engine.
//
// Deprecated: bench/ is the only caller; ROADMAP 1(a)'s benchmark-only PR deletes it.
func WithColocated(bool) Option { return func(*Options) {} }

// buildOptions folds functional options into a defaulted carrier.
func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o.withDefaults()
}

func (o Options) withDefaults() Options {
	if o.FLD.NumTxQueues == 0 {
		o.FLD = fld.DefaultConfig()
	}
	if o.NIC.SQWindow == 0 {
		o.NIC = nic.DefaultParams()
	}
	if o.Driver.DoorbellBatch == 0 {
		o.Driver = swdriver.DefaultParams()
	}
	if o.Link.Lanes == 0 {
		o.Link = pcie.Gen3x8()
	}
	return o
}

// hostMemBytes sizes each host's DRAM.
const hostMemBytes = 1 << 30

// nicLink is the NIC ASIC's attachment to the embedded switch. The
// ConnectX-5 *contains* the Innova-2's PCIe switch (paper Figure 6), so
// its internal attach matches the aggregate of the two external x8
// links: the Link with doubled lanes.
func (o Options) nicLink() LinkConfig {
	l := o.Link
	l.Lanes *= 2
	return l
}

// wireTelemetry binds the registry to the engine clock and attaches
// per-layer scopes under the node's name. Safe to call with a nil
// registry (telemetry disabled).
func wireTelemetry(reg *telemetry.Registry, eng *Engine, name string,
	fab *pcie.Fabric, n *nic.NIC, f *fld.FLD, drv *swdriver.Driver) {
	if reg == nil {
		return
	}
	reg.Bind(eng.Now)
	node := reg.Scope(name)
	fab.SetTelemetry(node.Scope("pcie"))
	n.SetTelemetry(node.Scope("nic"))
	if f != nil {
		f.SetTelemetry(node.Scope("fld"))
	}
	if drv != nil {
		drv.SetTelemetry(node.Scope("swdriver"))
	}
}

// wireFaults binds the fault plan (if any) to the engine clock and
// attaches its hooks to the node's layers, including the crash–restart
// failure domains (each Attach is a no-op for disabled classes, and
// disabled classes consume no stream ordinals, so plans without crash
// faults reproduce their pre-crash schedules exactly).
func wireFaults(o Options, eng *Engine, fab *pcie.Fabric, n *nic.NIC, f *fld.FLD, drv *swdriver.Driver) {
	p := o.Faults
	if p == nil {
		return
	}
	p.Bind(eng)
	p.SetTelemetry(o.Telemetry.Scope("faults"))
	p.AttachFabric(fab)
	p.AttachNIC(n)
	if f != nil {
		p.AttachFLD(f)
	}
	p.AttachNICFLR(eng, nicFLRDomain{n})
	if f != nil {
		p.AttachFLDReset(eng, f)
	}
	if drv != nil {
		p.AttachDriverCrash(eng, drv)
	}
	comps := []faults.Crashable{n}
	if f != nil {
		comps = append(comps, f)
	}
	if drv != nil {
		comps = append(comps, drv)
	}
	p.AttachNodeCrash(eng, comps...)
}

// nicFLRDomain adapts a NIC to the FLR fault class: the function drops
// off the bus for the downtime window (a crash), and completing the
// reset leaves every ring cleanly re-initialized rather than errored —
// that's what distinguishes an FLR from a power loss.
type nicFLRDomain struct{ n *nic.NIC }

func (x nicFLRDomain) Crash() { x.n.Crash() }
func (x nicFLRDomain) Restart() {
	x.n.Restart()
	x.n.FLR()
}

// Node is the execution handle every testbed node embeds: the node's
// engine, its name, and — when the node was built by a Cluster —
// the owning cluster. Per-node work (scheduling callbacks, reading the
// local clock) goes through the node's engine; execution (Run/RunUntil)
// delegates to the cluster when there is one, so
// node.Run() on a clustered node drives the whole topology, exactly as
// the redesigned Cluster.Run does.
type Node struct {
	eng  *Engine
	cl   *Cluster
	name string
}

// Engine returns the node's engine. Schedule node-local events
// here; events that coordinate across nodes belong in Cluster.Control.
func (n *Node) Engine() *Engine { return n.eng }

// Name returns the node name — the telemetry scope its counters
// register beneath.
func (n *Node) Name() string { return n.name }

// Cluster returns the owning cluster, or nil for standalone nodes.
func (n *Node) Cluster() *Cluster { return n.cl }

// Run drives the simulation to quiescence: the whole cluster for
// clustered nodes, the private engine for standalone ones.
func (n *Node) Run() {
	if n.cl != nil {
		n.cl.Run()
		return
	}
	n.eng.Run()
}

// RunUntil drives the simulation through deadline (inclusive).
func (n *Node) RunUntil(deadline Time) {
	if n.cl != nil {
		n.cl.RunUntil(deadline)
		return
	}
	n.eng.RunUntil(deadline)
}

// Host is a plain server: CPU + DRAM + a ConnectX-class NIC, driven by
// the software poll-mode driver. It is the client side of the remote
// experiments and the CPU baseline of the local ones.
type Host struct {
	Node
	Fab *pcie.Fabric
	Mem *hostmem.Memory
	NIC *NIC
	Drv *Driver

	tel *telemetry.Registry
}

// Telemetry returns the registry the host was built with, or nil when
// telemetry is disabled.
func (h *Host) Telemetry() *Registry { return h.tel }

// NewHost builds a host on the engine.
func NewHost(eng *Engine, name string, opts ...Option) *Host {
	return newHost(eng, name, buildOptions(opts))
}

// newHost builds a host from an already-folded carrier; the Cluster
// builder and NewRemotePair reach it directly so options fold exactly
// once per topology.
func newHost(eng *Engine, name string, o Options) *Host {
	fab := pcie.NewFabric(eng)
	mem := hostmem.New(name+"-dram", hostMemBytes)
	fab.Attach(mem, o.Link)
	n := nic.New(name+"-nic", eng, o.NIC)
	n.AttachPCIe(fab, o.nicLink())
	drv := swdriver.New(eng, fab, mem, n, o.Driver)
	wireTelemetry(o.Telemetry, eng, name, fab, n, nil, drv)
	wireFaults(o, eng, fab, n, nil, drv)
	return &Host{Node: Node{eng: eng, name: name}, Fab: fab, Mem: mem, NIC: n, Drv: drv, tel: o.Telemetry}
}

// Innova is an Innova-2-style SmartNIC node: host DRAM, a ConnectX-class
// NIC and an FPGA carrying FLD, all behind the NIC's embedded PCIe switch
// (paper Figure 6). The host CPU also has a software driver, used by
// local experiments as the load generator and CPU baseline.
type Innova struct {
	Node
	Fab *pcie.Fabric
	Mem *hostmem.Memory
	NIC *NIC
	FLD *FLD
	RT  *Runtime
	Drv *Driver

	tel    *telemetry.Registry
	faults *faults.Plan
	link   LinkConfig // the node's configured PCIe link, reused by AddFLD
	flds   []*FLD     // every core, for whole-node crash–restart
}

// Crash takes the whole Innova down — NIC, every FLD core, and the host
// driver — as one failure domain: the targeted-crash primitive behind
// the failover experiment (the fault plan's node.crash class drives the
// same components on a schedule instead). Balanced by Restart.
func (inn *Innova) Crash() {
	inn.NIC.Crash()
	for _, f := range inn.flds {
		f.Crash()
	}
	inn.Drv.Crash()
}

// Restart brings a crashed Innova back. Queue state does not silently
// heal: rings stay errored until driver-side recovery (the supervision
// ladder, fldsw watchdogs) reattaches them, exactly as after a real
// power cycle.
func (inn *Innova) Restart() {
	inn.NIC.Restart()
	for _, f := range inn.flds {
		f.Restart()
	}
	inn.Drv.Restart()
}

// NewInnova builds an Innova node on the engine.
func NewInnova(eng *Engine, name string, opts ...Option) *Innova {
	return newInnova(eng, name, buildOptions(opts))
}

// newInnova builds an Innova node from an already-folded carrier.
func newInnova(eng *Engine, name string, o Options) *Innova {
	fab := pcie.NewFabric(eng)
	mem := hostmem.New(name+"-dram", hostMemBytes)
	fab.Attach(mem, o.Link)
	n := nic.New(name+"-nic", eng, o.NIC)
	n.AttachPCIe(fab, o.nicLink())
	f := fld.New(eng, o.FLD)
	f.AttachPCIe(fab, o.Link)
	rt := fldsw.NewRuntime(eng, fab, mem, n, f)
	drv := swdriver.New(eng, fab, mem, n, o.Driver)
	wireTelemetry(o.Telemetry, eng, name, fab, n, f, drv)
	wireFaults(o, eng, fab, n, f, drv)
	return &Innova{Node: Node{eng: eng, name: name}, Fab: fab, Mem: mem, NIC: n, FLD: f, RT: rt, Drv: drv,
		tel: o.Telemetry, faults: o.Faults, link: o.Link, flds: []*FLD{f}}
}

// AddFLD instantiates an additional FlexDriver core on the node's FPGA
// and wires a runtime for it — the §9 scaling strategy: "instantiating
// multiple FLD 'cores' within the accelerator, combined with NIC RSS
// offloads to balance the load on these cores".
func (inn *Innova) AddFLD(cfg FLDConfig) (*FLD, *Runtime) {
	f := inn.newCore(cfg)
	return f, fldsw.NewRuntime(inn.eng, inn.Fab, inn.Mem, inn.NIC, f)
}

// newCore instantiates core number len(inn.flds) on the node's FPGA: attached
// to PCIe under a distinct device name, which keeps its link telemetry
// separate (matching its fld<N> scope) so per-port byte accounting still
// reconciles, instrumented, counted, and joined to the node's fault
// classes. It wires no runtime: AddFLD adds the PF's, tenant cores get
// theirs through a VF.
func (inn *Innova) newCore(cfg FLDConfig) *FLD {
	name := fmt.Sprintf("fld%d", len(inn.flds))
	f := fld.New(inn.eng, cfg)
	f.SetPCIeName(name)
	f.AttachPCIe(inn.Fab, inn.link)
	f.SetTelemetry(inn.tel.Scope(inn.name).Scope(name))
	inn.flds = append(inn.flds, f)
	if inn.faults != nil {
		inn.faults.AttachFLD(f)
		inn.faults.AttachFLDReset(inn.eng, f)
	}
	return f
}

// RemotePair is the paper's remote testbed: a client host with a
// ConnectX-4-class NIC cabled to an Innova-2 server at 25 GbE. Its
// embedded Node runs the pair (Run/RunUntil/Now/Engine).
type RemotePair struct {
	Node
	Client *Host
	Server *Innova
	Wire   *Wire
}

// NewRemotePair builds the two-node remote testbed — the trivial
// Cluster: options fold once, both nodes build from the shared carrier,
// and the NICs are cabled back to back (no switch in the path). With
// WithTelemetry both register under their node names ("client",
// "server") in the shared registry.
func NewRemotePair(opts ...Option) *RemotePair {
	c := NewCluster(opts...)
	client := c.buildHost("client")
	server := c.buildInnova("server")
	w := nic.ConnectWire(client.NIC, server.NIC, 25*Gbps, 500*Nanosecond)
	if c.o.Faults != nil {
		c.o.Faults.AttachLink(&w.Link, c.eng)
	}
	return &RemotePair{Node: Node{eng: c.eng, cl: c, name: "pair"}, Client: client, Server: server, Wire: w}
}

// NewLocalInnova builds the paper's local testbed: one Innova node whose
// host CPU exchanges traffic with the FPGA through the NIC's embedded
// switch (maximum throughput bounded by the 50 Gbps PCIe link).
func NewLocalInnova(opts ...Option) *Innova {
	eng := sim.NewEngine()
	return NewInnova(eng, "innova", opts...)
}
