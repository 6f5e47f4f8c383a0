package flexdriver

import (
	"flexdriver/internal/ethswitch"
	"flexdriver/internal/sim"
)

// Facade re-exports for the switched fabric.
type (
	// EthSwitch is the ToR switch model (internal/ethswitch).
	EthSwitch = ethswitch.Switch
	// SwitchPort is one switch port plus its cable segment.
	SwitchPort = ethswitch.Port
	// SwitchConfig sets the switch's uniform port parameters.
	SwitchConfig = ethswitch.Config
)

// Cluster is the N-node switched testbed: any number of plain hosts and
// Innova nodes racked behind one ToR switch — the topology the paper's
// §9 scaling regime (many clients, multiple FLD cores behind RSS)
// needs. Options fold once at NewCluster and apply to every node;
// telemetry registers each node under its name plus the switch under
// "switch", and a fault plan attaches to every layer of every node and
// to every switch-port link.
//
// Every node and the switch run on the cluster's one engine; the nodes
// meet only through the switch ports' conduits, whose arrivals run first
// among the events of their picosecond (see sim.Engine.push). Run and
// RunUntil drive the engine and the cluster's barrier actions (Control)
// on the calling goroutine.
type Cluster struct {
	Hosts   []*Host
	Innovas []*Innova

	group *sim.Group
	eng   *sim.Engine // the group's one engine
	o     Options
	swCfg ethswitch.Config
	sw    *ethswitch.Switch
	ports map[*NIC]*ethswitch.Port

	// Tenancy control plane: the per-node managers (see tenancy.go).
	tms []*TenantManager
}

// NewCluster starts an empty topology; add nodes with AddHost/AddInnova.
func NewCluster(opts ...Option) *Cluster {
	g := sim.NewGroup()
	c := &Cluster{
		group: g,
		eng:   g.NewEngine(),
		o:     buildOptions(opts),
		ports: make(map[*NIC]*ethswitch.Port),
	}
	// The group clock is the cluster's time authority. Bind is
	// first-wins, so binding here keeps any node from claiming the
	// registry.
	if c.o.Telemetry != nil {
		c.o.Telemetry.Bind(c.group.Now)
	}
	return c
}

// SwitchRate sets the switch's per-port line rate (default 25 Gbps). The
// switch is built, from this configuration, when the first node is
// added: call SwitchRate and SwitchQueueFrames before that.
func (c *Cluster) SwitchRate(r BitRate) *Cluster {
	c.swCfg.Rate = r
	return c
}

// SwitchQueueFrames bounds each output queue in frames (default 64).
func (c *Cluster) SwitchQueueFrames(n int) *Cluster {
	c.swCfg.QueueFrames = n
	return c
}

// Switch returns the ToR switch, creating it on first use.
func (c *Cluster) Switch() *EthSwitch {
	if c.sw == nil {
		c.sw = ethswitch.New(c.eng, c.swCfg)
		c.sw.SetTelemetry(c.o.Telemetry.Scope("switch"))
		if c.o.Faults != nil {
			c.o.Faults.AttachSwitchReboot(c.eng, c.sw)
		}
	}
	return c.sw
}

// PortOf returns the switch port a node's NIC hangs off.
func (c *Cluster) PortOf(n *NIC) *SwitchPort { return c.ports[n] }

// Telemetry returns the registry the cluster was built with, or nil.
func (c *Cluster) Telemetry() *Registry { return c.o.Telemetry }

// Group exposes the underlying scheduler group — the escape hatch for
// its statistics.
func (c *Cluster) Group() *sim.Group { return c.group }

// Engines returns the cluster's engine as a one-element slice, for
// invariant sweeps over Pending and Bufs.
func (c *Cluster) Engines() []*Engine { return c.group.Engines() }

// Now returns the cluster's virtual time.
func (c *Cluster) Now() Time { return c.group.Now() }

// Control schedules fn at cluster time t: every event before t has run
// and the clock reads t when fn runs, before any event at t, so fn may
// read or mutate any node. Controls are the cluster-wide analogue of
// Engine.After; per-node work belongs on the node's engine.
func (c *Cluster) Control(t Time, fn func()) { c.group.Control(t, fn) }

// Pending returns the number of undelivered events, in-flight frames
// included, and pending controls.
func (c *Cluster) Pending() int { return c.group.Pending() }

// Run drives the cluster until it is idle.
func (c *Cluster) Run() { c.group.Run() }

// RunUntil drives the cluster through deadline (inclusive), then advances
// the clock to it.
func (c *Cluster) RunUntil(deadline Time) { c.group.RunUntil(deadline) }

// AddHost builds a plain host and racks it behind the switch.
func (c *Cluster) AddHost(name string) *Host {
	h := c.buildHost(name)
	c.join(h.NIC)
	return h
}

// AddInnova builds an Innova node and racks it behind the switch.
func (c *Cluster) AddInnova(name string) *Innova {
	inn := c.buildInnova(name)
	c.join(inn.NIC)
	return inn
}

// buildHost constructs a node without cabling it.
func (c *Cluster) buildHost(name string) *Host {
	h := newHost(c.eng, name, c.o)
	h.cl = c
	c.Hosts = append(c.Hosts, h)
	return h
}

func (c *Cluster) buildInnova(name string) *Innova {
	inn := newInnova(c.eng, name, c.o)
	inn.cl = c
	c.Innovas = append(c.Innovas, inn)
	return inn
}

// join cables a NIC to the next switch port and extends the fault plan
// to the new link.
func (c *Cluster) join(n *NIC) {
	port := c.Switch().Connect(n)
	c.ports[n] = port
	if c.o.Faults != nil {
		c.o.Faults.AttachLink(port.Link(), c.eng)
	}
}
