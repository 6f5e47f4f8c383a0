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
// Each node owns a private shard engine; the switch fabric is a shard of
// its own, and the only cross-shard paths are the port conduits, whose
// propagation delay is the scheduler's lookahead. Run and RunUntil step
// all shards through the group's window scheduler on the calling
// goroutine.
type Cluster struct {
	Hosts   []*Host
	Innovas []*Innova

	group  *sim.Group
	o      Options
	swCfg  ethswitch.Config
	sw     *ethswitch.Switch
	ports  map[*NIC]*ethswitch.Port
	shared *sim.Engine // the single engine under WithColocated

	// Tenancy control plane: the per-node managers (see tenancy.go).
	tms []*TenantManager
}

// NewCluster starts an empty topology; add nodes with AddHost/AddInnova.
func NewCluster(opts ...Option) *Cluster {
	c := &Cluster{
		group: sim.NewGroup(),
		o:     buildOptions(opts),
		ports: make(map[*NIC]*ethswitch.Port),
	}
	// Lookahead = the per-segment switch latency (ethswitch's default):
	// no frame crosses shards faster than one segment's propagation
	// delay.
	c.group.SetLookahead(500 * Nanosecond)
	// The group clock is the cluster's time authority. Bind is
	// first-wins, so binding here keeps any node's per-shard clock from
	// claiming the registry.
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

// shardEngine returns the engine for the next node or the switch: a
// fresh shard normally, the cluster's one shared engine under
// WithColocated (conduits between identical engines degenerate to
// direct scheduling, so a fully colocated cluster has no cross-shard
// paths at all and the group runs it monolithically).
func (c *Cluster) shardEngine() *sim.Engine {
	if !c.o.Colocate {
		return c.group.NewEngine()
	}
	if c.shared == nil {
		c.shared = c.group.NewEngine()
	}
	return c.shared
}

// Switch returns the ToR switch, creating it (and its shard engine) on
// first use.
func (c *Cluster) Switch() *EthSwitch {
	if c.sw == nil {
		c.sw = ethswitch.New(c.shardEngine(), c.swCfg)
		if c.o.Telemetry != nil {
			c.sw.SetTelemetry(c.o.Telemetry.Scope("switch"))
		}
		if c.o.Faults != nil {
			c.o.Faults.AttachSwitchReboot(c.sw.Engine(), c.sw)
		}
	}
	return c.sw
}

// PortOf returns the switch port a node's NIC hangs off.
func (c *Cluster) PortOf(n *NIC) *SwitchPort { return c.ports[n] }

// Telemetry returns the registry the cluster was built with, or nil.
func (c *Cluster) Telemetry() *Registry { return c.o.Telemetry }

// Group exposes the underlying scheduler group — the escape hatch for
// invariant sweeps (per-shard Pending/Bufs) and scheduler statistics.
func (c *Cluster) Group() *sim.Group { return c.group }

// Engines returns every shard engine in creation order (nodes, then the
// switch if one exists).
func (c *Cluster) Engines() []*Engine { return c.group.Engines() }

// Now returns the cluster's virtual time: exact after Run/RunUntil
// return, when every shard has synchronized.
func (c *Cluster) Now() Time { return c.group.Now() }

// Control schedules fn at cluster time t: every shard is quiesced past t
// and advanced to t before fn runs, so fn may read or mutate any node.
// Controls are the cluster-wide analogue of Engine.After; per-node work
// belongs on the node's own engine.
func (c *Cluster) Control(t Time, fn func()) { c.group.Control(t, fn) }

// Pending returns the number of undelivered events across all shards,
// in-flight cross-shard frames included.
func (c *Cluster) Pending() int { return c.group.Pending() }

// Run drives every shard until the cluster is idle.
func (c *Cluster) Run() { c.group.Run() }

// RunUntil drives every shard through deadline (inclusive), then
// advances all clocks to it.
func (c *Cluster) RunUntil(deadline Time) { c.group.RunUntil(deadline) }

// AddHost builds a plain host on its own shard and racks it behind the
// switch.
func (c *Cluster) AddHost(name string) *Host {
	h := c.buildHost(name)
	c.join(h.NIC)
	return h
}

// AddInnova builds an Innova node on its own shard and racks it behind
// the switch.
func (c *Cluster) AddInnova(name string) *Innova {
	inn := c.buildInnova(name)
	c.join(inn.NIC)
	return inn
}

// buildHost constructs a node on a fresh shard without cabling it;
// NewRemotePair instead colocates its two nodes via buildHostOn.
func (c *Cluster) buildHost(name string) *Host {
	return c.buildHostOn(c.shardEngine(), name)
}

func (c *Cluster) buildHostOn(eng *Engine, name string) *Host {
	h := newHost(eng, name, c.o)
	h.cl = c
	c.Hosts = append(c.Hosts, h)
	return h
}

func (c *Cluster) buildInnova(name string) *Innova {
	return c.buildInnovaOn(c.shardEngine(), name)
}

func (c *Cluster) buildInnovaOn(eng *Engine, name string) *Innova {
	inn := newInnova(eng, name, c.o)
	inn.cl = c
	c.Innovas = append(c.Innovas, inn)
	return inn
}

// join cables a NIC to the next switch port and extends the fault plan
// to the new link — one stream per direction, each on the shard whose
// hooks consume it.
func (c *Cluster) join(n *NIC) {
	port := c.Switch().Connect(n)
	c.ports[n] = port
	if c.o.Faults != nil {
		c.o.Faults.AttachLink(port.Link(), port.EndpointEngine(), c.sw.Engine())
	}
}
