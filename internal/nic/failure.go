package nic

import "sort"

// Failure domains: device-level crash–restart and function-level reset.
//
// Crash/Restart model the whole adapter losing power or firmware
// (Innova crash–restart, node power-cycle): every queue silently enters
// the Error state — a dead device cannot DMA, so unlike enterError no
// CQE announces the transition — and all MMIO and wire traffic is
// dropped (DropDeviceDown) until Restart. Restart restores the
// function but deliberately leaves the queues in Error: real hardware
// comes back with reset state, and it is the driver's supervision
// ladder that notices (Poll/Recover watchdogs) and walks the queues
// back to Ready.
//
// FLR models the driver-initiated function-level reset (rung 3 of the
// swdriver supervision ladder): queues replay from the last completion
// the host saw, like the FLD's ReplayWindow recovery but for every
// queue at once.

// Down reports whether the device is currently crashed.
func (n *NIC) Down() bool { return n.downN > 0 }

// Crash takes the device down. Crashes nest: overlapping fault windows
// each call Crash once and Restart once, and the device is up only when
// every window has lifted.
func (n *NIC) Crash() {
	n.downN++
	if n.downN > 1 {
		return
	}
	n.Stats.DeviceCrashes++
	for _, sq := range n.sqs {
		sq.fail()
	}
	for _, rq := range n.rqs {
		rq.fail()
	}
	for _, qp := range n.qps {
		qp.fail()
	}
}

// Restart lifts one crash window. The queues stay in Error until the
// driver resets them — see the package comment above.
func (n *NIC) Restart() {
	if n.downN == 0 {
		return
	}
	n.downN--
}

// FLR performs a function-level reset: every SQ re-fetches its posted
// window from the ring (the FLD/host still serves the descriptors) and
// every RQ rewinds its prefetch pipeline. A no-op while the device is
// down — the reset takes effect only once the function responds again.
// Queues are walked in ID order so the rescheduled work is identical
// run to run (map iteration order is not).
func (n *NIC) FLR() {
	if n.downN > 0 {
		return
	}
	n.Stats.DeviceFLRs++
	for _, id := range sortedKeys(n.sqs) {
		sq := n.sqs[id]
		sq.ResetTo(sq.ci, sq.pi)
	}
	for _, id := range sortedKeys(n.rqs) {
		n.rqs[id].Reset()
	}
}

func sortedKeys[V any](m map[uint32]*V) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// fail silently transitions the SQ to Error for a device-level crash.
// Unlike enterError no CQE is written — a dead device cannot DMA. The
// epoch bump invalidates in-flight fetches and egress completions.
func (sq *SQ) fail() {
	if sq.state == QueueError {
		return
	}
	sq.state = QueueError
	sq.epoch++
	sq.n.Stats.QueueErrors++
}

// fail silently transitions the RQ to Error; the internal rx backlog is
// lost with the device and counted per packet.
func (rq *RQ) fail() {
	if rq.state == QueueError {
		return
	}
	rq.state = QueueError
	rq.epoch++
	rq.n.Stats.QueueErrors++
	for rq.backlog.Len() > 0 {
		rq.n.dropFrame(DropDeviceDown, rq.backlog.Pop().buf)
	}
}

// fail silently transitions the QP to Error: in-flight messages die with
// the device (no flush CQEs — those require DMA) and are counted as
// drops.
func (qp *QP) fail() {
	if qp.state == QueueError {
		return
	}
	qp.state = QueueError
	qp.n.Stats.QueueErrors++
	qp.snd.Flush(func(p *txPkt) { qp.n.drop(DropDeviceDown); qp.release(p) })
}
