// Package ethswitch models a top-of-rack Ethernet switch for the
// cluster testbed: MAC learning with flooding, store-and-forward with
// per-port line-rate serialization, and bounded output queues with
// tail-drop — the congestion point the paper's many-client scaling
// regime (§9) runs into before the server's 25 GbE port saturates.
//
// Every attached NIC hangs off a Port, whose segment carries the same
// nic.Link fault surface as a point-to-point cable, so
// faults.Plan.AttachLink generalizes loss/duplication/delay injection
// to every link of the fabric.
package ethswitch

import (
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Config sets the fabric's uniform port parameters.
type Config struct {
	// Rate is the per-port line rate (default 25 Gbps).
	Rate sim.BitRate
	// Latency is the per-segment propagation delay, charged once
	// NIC-to-switch and once switch-to-NIC (default 500 ns).
	Latency sim.Duration
	// QueueFrames bounds each port's output queue, counting the frame
	// in service; an arrival beyond it is tail-dropped (default 64).
	QueueFrames int
}

func (c Config) withDefaults() Config {
	if c.Rate == 0 {
		c.Rate = 25 * sim.Gbps
	}
	if c.Latency == 0 {
		c.Latency = 500 * sim.Nanosecond
	}
	if c.QueueFrames == 0 {
		c.QueueFrames = 64
	}
	return c
}

// Endpoint is what a switch port faces: a NIC (or a test stub) that can
// accept the port as its physical attachment and receive frames.
// *nic.NIC satisfies it. Engine reports the endpoint's simulation shard;
// the port runs its NIC-side half (dir-0 serialization, dir-1 delivery)
// there, so a sharded cluster crosses engines only on the port's two
// conduits.
type Endpoint interface {
	AttachPort(nic.Port)
	Ingress(frame []byte)
	Engine() *sim.Engine
}

// Stats tallies switch-level forwarding decisions.
type Stats struct {
	// Forwarded counts frames unicast to a learned port.
	Forwarded int64
	// Floods counts frames replicated to all other ports (unknown
	// unicast, broadcast, multicast).
	Floods int64
	// Filtered counts frames whose learned destination was their own
	// ingress port (hairpin), silently discarded as real switches do.
	Filtered int64
	// Malformed counts frames too short for an Ethernet header.
	Malformed int64
	// Reboots counts crash windows that actually took the switch down;
	// RebootDrops counts frames that arrived while it was down.
	Reboots     int64
	RebootDrops int64
}

// Switch is one ToR switch instance. Attach endpoints with Connect.
type Switch struct {
	Stats Stats

	eng   *sim.Engine
	cfg   Config
	ports []*Port
	fdb   map[netpkt.MAC]*Port

	// downN counts active reboot windows (see Crash/Restart); the
	// forwarding plane runs only at zero.
	downN int

	tlm *telemetry.Scope // nil unless SetTelemetry was called
}

// Crash models the ToR switch rebooting: the forwarding plane stops
// (frames arriving at the fabric are dropped and counted) and the
// learned FDB is lost with the control plane's RAM. Static entries
// programmed at build time are flushed too — after Restart the switch
// floods until it re-learns, exactly like real hardware coming back.
// Crashes nest like nic.Crash.
func (s *Switch) Crash() {
	s.downN++
	if s.downN > 1 {
		return
	}
	s.Stats.Reboots++
	s.fdb = make(map[netpkt.MAC]*Port)
}

// Restart lifts one reboot window.
func (s *Switch) Restart() {
	if s.downN == 0 {
		return
	}
	s.downN--
}

// New builds a switch; zero Config fields take defaults.
func New(eng *sim.Engine, cfg Config) *Switch {
	return &Switch{eng: eng, cfg: cfg.withDefaults(), fdb: make(map[netpkt.MAC]*Port)}
}

// Engine returns the engine the switch fabric schedules on.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// Ports returns the attached ports in connection order.
func (s *Switch) Ports() []*Port { return s.ports }

// FDBSize returns the number of learned MAC entries.
func (s *Switch) FDBSize() int { return len(s.fdb) }

// Connect attaches an endpoint to the next free port and makes the port
// the endpoint's physical attachment. The NIC-to-switch segment
// serializes on the endpoint's engine and the switch-to-NIC one on the
// switch's, so an endpoint on another shard exchanges frames with the
// switch only through the group's barrier merge. With the endpoint on the
// switch's own engine the crossings degenerate to direct schedules and
// behavior is unchanged.
func (s *Switch) Connect(ep Endpoint) *Port {
	p := &Port{sw: s, ID: len(s.ports), ep: ep}
	p.in.Init(&p.link, 0, &s.cfg.Rate, &s.cfg.Latency, ep.Engine(), s.eng, p.recvIn)
	p.out.Init(&p.link, 1, &s.cfg.Rate, &s.cfg.Latency, s.eng, ep.Engine(), p.recvOut)
	p.outSent = p.dequeue
	s.ports = append(s.ports, p)
	ep.AttachPort(p)
	if s.tlm != nil {
		p.instrument(s.tlm)
	}
	return p
}

// Program installs a static FDB entry, pinning mac to p without
// learning.
func (s *Switch) Program(mac netpkt.MAC, p *Port) { s.fdb[mac] = p }

// unicastMAC reports whether m is a unicast address (group bit clear,
// not all-zero).
func unicastMAC(m netpkt.MAC) bool { return m[0]&1 == 0 && m != (netpkt.MAC{}) }

// ingress is the forwarding pipeline: a fully received frame is learned
// against the source MAC, then unicast to the learned output port or
// flooded.
func (s *Switch) ingress(src *Port, frame []byte) {
	if s.downN > 0 {
		s.Stats.RebootDrops++
		return
	}
	src.count(&src.Counters.RxFrames, &src.Counters.RxBytes, len(frame))
	eh, _, err := netpkt.ParseEth(frame)
	if err != nil {
		s.Stats.Malformed++
		return
	}
	if unicastMAC(eh.Src) {
		s.fdb[eh.Src] = src
	}
	if dst, ok := s.fdb[eh.Dst]; ok && unicastMAC(eh.Dst) {
		if dst == src {
			s.Stats.Filtered++
			return
		}
		s.Stats.Forwarded++
		dst.deliver(frame)
		return
	}
	s.Stats.Floods++
	for _, p := range s.ports {
		if p != src {
			p.deliver(frame)
		}
	}
}

// PortCounters is per-port delivery accounting.
type PortCounters struct {
	// RxFrames/RxBytes count frames the switch accepted from the NIC.
	RxFrames, RxBytes int64
	// TxFrames/TxBytes count frames fully delivered to the NIC.
	TxFrames, TxBytes int64
	// TailDrops counts frames discarded because the output queue was
	// full.
	TailDrops int64
}

// Port is one switch port plus the two segments cabling it to its
// endpoint. It implements nic.Port for the NIC-to-switch direction. On
// its Link, dir 0 is NIC-to-switch and dir 1 is switch-to-NIC.
//
// Shard split: in's sending half and recvOut run on the endpoint's
// engine; ingress, deliver, out's sending half and dequeue run on the
// switch's engine. Each field has a single writing shard (the Link's
// per-direction counters and fault hooks are disjoint by direction), so a
// parallel group needs no locks here.
type Port struct {
	ID       int
	Counters PortCounters

	sw   *Switch
	ep   Endpoint
	link nic.Link

	in, out nic.Segment // in: NIC-to-switch (dir 0); out: switch-to-NIC (dir 1)
	queued  int         // frames waiting or in service on out
	outSent func()      // p.dequeue, bound once: a method value allocates

	depth *telemetry.Gauge // output-queue occupancy (high-water tracked); nil-safe
}

// Link exposes the segments' fault hooks and delivery counters for
// faults.Plan.AttachLink.
func (p *Port) Link() *nic.Link { return &p.link }

// EndpointEngine returns the engine the port's NIC-side half runs on
// (dir-0 hooks fire there; dir-1 hooks fire on the switch engine).
func (p *Port) EndpointEngine() *sim.Engine { return p.ep.Engine() }

func (p *Port) count(frames, bytes *int64, n int) {
	*frames++
	*bytes += int64(n)
}

// Send serializes a frame from the NIC into the switch (dir 0). It is
// the nic.Port implementation; onSent fires when the frame has fully
// left the NIC. Runs on the endpoint's shard.
func (p *Port) Send(frame []byte, onSent func()) { p.in.Send(frame, onSent) }

// recvIn accepts a frame off the inbound segment and hands it to the
// forwarding pipeline (switch shard).
func (p *Port) recvIn(frame []byte) {
	p.link.Delivered[0]++
	p.sw.ingress(p, frame)
}

// deliver queues a frame on the output port toward the NIC (dir 1),
// tail-dropping when the bounded queue is full.
func (p *Port) deliver(frame []byte) {
	if p.queued >= p.sw.cfg.QueueFrames {
		p.Counters.TailDrops++
		return
	}
	p.queued++
	p.depth.Set(int64(p.queued))
	p.out.Send(frame, p.outSent)
}

// dequeue frees the output-queue slot once the frame has fully left the
// switch port, lost on the segment or not.
func (p *Port) dequeue() {
	p.queued--
	p.depth.Set(int64(p.queued))
}

// recvOut accepts a frame off the outbound segment and hands it to the
// endpoint NIC's ingress pipeline (endpoint shard).
func (p *Port) recvOut(frame []byte) {
	p.link.Delivered[1]++
	p.count(&p.Counters.TxFrames, &p.Counters.TxBytes, len(frame))
	p.ep.Ingress(frame)
}
