package nic

import "flexdriver/internal/sim"

// Port is the NIC-facing side of a physical-layer attachment: the thing
// a NIC transmits into. A Wire's Segment and an Ethernet-switch port
// both implement it, so a NIC does not know — or care — whether it is
// cabled back to back or racked behind a ToR switch.
type Port interface {
	// Send serializes frame out of the NIC. onSent fires when the frame
	// has fully left the sender (the NIC's transmit-completion
	// semantics); delivery to the far side happens later, after the
	// segment's latency.
	Send(frame []byte, onSent func())
}

// AttachPort connects the NIC's physical port. Subsequent wire
// transmissions go to p; ConnectWire and ethswitch.Connect call this.
func (n *NIC) AttachPort(p Port) { n.phy = p }

// Link is the per-segment state every Ethernet link in the testbed
// shares: the fault-injection hooks and frame delivery accounting. The
// point-to-point Wire embeds one, and each switch port owns one per
// attached NIC, so faults.Plan.AttachLink generalizes loss, duplication
// and delay-reordering injection to every link of a cluster.
//
// Directions are numbered by the transmitting end: for a Wire, dir is
// the cable end (0 or 1); for a switch port, dir 0 is NIC-to-switch and
// dir 1 is switch-to-NIC.
type Link struct {
	// Loss, when set, is consulted per frame; returning true drops it
	// after serialization (bytes occupied the segment, nothing
	// arrives). Used to exercise the RDMA retransmission path and by
	// the fault plane.
	Loss func(dir int, frame []byte) bool
	// Dup, when set, delivers the frame twice when it returns true —
	// modeling a duplicating middlebox or a spurious link-level retry.
	// The second copy trails the first by one serialization time, as a
	// back-to-back retransmission would.
	Dup func(dir int, frame []byte) bool
	// Delay, when set, adds per-frame extra latency; frames given a
	// larger delay than their successors arrive reordered.
	Delay func(dir int, frame []byte) sim.Duration

	// Sent counts frames offered per direction; Delivered counts frames
	// that arrived (duplicates count twice); Lost counts frames the
	// Loss hook consumed.
	Sent, Delivered, Lost [2]int64
}
