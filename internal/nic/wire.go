package nic

import "flexdriver/internal/sim"

// Wire is a full-duplex Ethernet cable between two NIC ports: two
// segments on one engine. The embedded Link carries the fault hooks and
// delivery counters shared with switch ports; dir is the transmitting
// end.
type Wire struct {
	Link

	rate    sim.BitRate
	latency sim.Duration
	segs    [2]Segment
}

// ConnectWire cables two NICs back to back. Both NICs must live on the
// same engine; the panic catches topology bugs at build time.
func ConnectWire(a, b *NIC, rate sim.BitRate, latency sim.Duration) *Wire {
	if a.eng != b.eng {
		panic("nic: ConnectWire requires both NICs on one engine")
	}
	w := &Wire{rate: rate, latency: latency}
	for dir, tx := range [2]*NIC{a, b} {
		rx := [2]*NIC{b, a}[dir]
		s := &w.segs[dir]
		s.Init(&w.Link, dir, &w.rate, &w.latency, tx.eng, func(frame []byte) {
			w.Delivered[dir]++
			rx.Ingress(frame)
		})
		// The sending NIC keeps its own ledger of frames the cable ate,
		// next to its other drop reasons.
		s.onLost = func() { tx.drop(DropWireInjectedLoss) }
		tx.AttachPort(s)
	}
	return w
}
