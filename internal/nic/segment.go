package nic

import "flexdriver/internal/sim"

// EthWireOverhead is the per-frame physical-layer overhead in bytes
// (preamble, FCS, inter-frame gap) the paper's rate model charges.
const EthWireOverhead = 20

// Segment is one direction of an Ethernet cable, and the only place a
// frame's transit is written: serialize at the line rate, fire onSent,
// consult the Link's hooks for this direction, cross the latency through
// a conduit, deliver. A Wire is two segments, a switch port two between
// the NIC and the switch, a virtio cable two between NetDevices. It
// implements Port, so the sending NIC transmits straight into it.
//
// The owner embeds the segment by value and keeps what differs at its
// ends: the deliver callback it hands to Init (which counts
// Link.Delivered as its first act), any per-frame onSent, and onLost.
// The Link's counters and hooks are disjoint by direction.
type Segment struct {
	link *Link
	dir  int
	// rate and latency point into the owner's configuration and are read
	// per frame, so retuning applies to frames offered afterwards.
	rate    *sim.BitRate
	latency *sim.Duration

	ser      sim.Resource // the sender's serializer
	c        *sim.Conduit
	transits sim.Pool[transit, *transit]

	// onLost, when set, tells the owner a frame fell to the Loss hook.
	onLost func()
}

// transit is one frame's record through the serializer, recycled through
// its segment's pool and scheduled through the engine's arg-form
// callbacks, so steady-state forwarding allocates nothing per frame.
type transit struct {
	sim.Link[transit]
	seg    *Segment
	frame  []byte
	onSent func()
	d      sim.Duration // serialization time (dup spacing)
}

// Init wires direction dir of link l on eng. deliver runs at each
// arrival.
func (s *Segment) Init(l *Link, dir int, rate *sim.BitRate, latency *sim.Duration,
	eng *sim.Engine, deliver func(frame []byte)) {
	*s = Segment{link: l, dir: dir, rate: rate, latency: latency,
		ser: *sim.NewResource(eng), c: sim.NewConduit(eng, eng, deliver)}
}

// Utilization returns the fraction of time the serializer spent busy.
func (s *Segment) Utilization() float64 { return s.ser.Utilization() }

// Send serializes frame onto the segment; onSent (which may be nil)
// fires when it has fully left the sender, delivery follows after the
// latency.
func (s *Segment) Send(frame []byte, onSent func()) {
	s.link.Sent[s.dir]++
	x := s.transits.Get()
	x.seg, x.frame, x.onSent = s, frame, onSent
	x.d = s.rate.Serialize(len(frame) + EthWireOverhead)
	s.c.Engine().AtArg(s.ser.Acquire(x.d), segmentSent, x)
}

// segmentSent runs when the frame has fully left the sender. Loss, delay
// and duplication are decided here, on the sending side; surviving copies
// cross the conduit.
func segmentSent(a any) {
	x := a.(*transit)
	s, frame, onSent, d := x.seg, x.frame, x.onSent, x.d
	x.frame, x.onSent = nil, nil
	s.transits.Put(x)
	if onSent != nil {
		onSent()
	}
	l, dir, bufs := s.link, s.dir, s.c.Engine().Bufs()
	if l.Loss != nil && l.Loss(dir, frame) {
		l.Lost[dir]++
		bufs.Put(frame)
		if s.onLost != nil {
			s.onLost()
		}
		return
	}
	at := s.c.Engine().Now() + *s.latency
	if l.Delay != nil {
		at += l.Delay(dir, frame)
	}
	var dup []byte
	if l.Dup != nil && l.Dup(dir, frame) {
		dup = bufs.Clone(frame)
	}
	s.c.Send(at, frame)
	if dup != nil {
		// A duplicate (a copy of its own) trails the original by one
		// serialization time, as a link-level retransmission would.
		s.c.Send(at+d, dup)
	}
}
