package fld

// Failure domains: FLD/AFU hard reset (crash–restart of the FPGA
// function). While down the FLD does not respond on PCIe: descriptor
// and payload reads from the NIC elicit no completion (the requester's
// timeout drives the SQ into Error organically), completion and
// receive-data writes are posted into the void, and accelerator Sends
// fail. Crash frees every in-flight transmit resource — on-die SRAM
// loses its contents with the function — so recovery after Restart is
// a replay of an empty window plus a receive-ring resync.

// Down reports whether the FLD is currently crashed.
func (f *FLD) Down() bool { return f.downN > 0 }

// Quiesced reports whether the FLD has no transmit work in flight: every
// descriptor it posted has been completed (or crash-flushed) and its
// resources released. Drain gates on this before reconfiguring a tenant,
// so a reconfigure never strands replay credits mid-window. A crashed
// core is not quiesced — its recovery replay is still owed.
func (f *FLD) Quiesced() bool {
	if f.downN > 0 {
		return false
	}
	for _, tq := range f.queues {
		if tq.ring.Len() > 0 {
			return false
		}
	}
	return true
}

// TxPosted returns the producer index of transmit queue q — how many
// descriptors the FLD has ever posted to it. Drain logic compares this
// against the NIC send queue's own indices: when the NIC has executed
// up to this index, any descriptor the FLD still tracks is finished
// work whose completion report was unsignaled or lost, not work in
// flight.
func (f *FLD) TxPosted(q int) uint32 { return f.queues[q].ring.PI }

// Crash takes the FLD down. Crashes nest like nic.Crash: the function
// responds again only when every crash window has lifted.
func (f *FLD) Crash() {
	f.downN++
	if f.downN > 1 {
		return
	}
	f.Stats.Crashes++
	f.flushFunction(true)
}

// ResetFunction is the deliberate analogue of a crash–restart cycle:
// the PF control plane resets the AFU transmit/receive state when a
// tenant releases its core, so the next tenant inherits no pending
// descriptors, pool pages or translations. Unlike Crash it counts no
// fault and the function stays up — the core is drained (or being torn
// down, its queues already failed) when this is called. The queue
// indices restart from zero: the next tenure binds fresh NIC queues,
// whose rings also start empty, and drain logic compares the two
// producer indices for equality.
func (f *FLD) ResetFunction() {
	f.flushFunction(false)
	for _, tq := range f.queues {
		tq.ring.PI = 0
		tq.cursor = 0
		tq.sinceSig = 0
	}
}

// flushFunction releases every in-flight transmit resource and abandons
// the in-progress receive buffer. crashed selects the fault accounting:
// a real crash window counts each dropped descriptor, a deliberate
// function reset does not.
func (f *FLD) flushFunction(crashed bool) {
	// The transmit pools are on-die SRAM: every pending descriptor, its
	// payload pages and its translation entries die with the function.
	for qi, tq := range f.queues {
		if crashed {
			f.Stats.CrashDrops += int64(tq.ring.Len())
		}
		for tq.ring.Len() > 0 {
			f.releaseTx(qi)
		}
	}
	// Abandon the receive buffer the NIC was mid-fill on; ResyncRx
	// reposts lost capacity once the driver ladder reaches the FLD.
	f.rx.Abandon()
	f.noteOccupancy()
}

// Restart lifts one crash window. Like the NIC, the function comes
// back empty: the driver's supervision ladder resets the NIC queues
// (ReplayWindow is now empty, so the replay is trivial) and calls
// ResyncRx to restore receive capacity.
func (f *FLD) Restart() {
	if f.downN == 0 {
		return
	}
	f.downN--
}

// ResyncRx realigns the receive producer index after a crash–restart.
// posted is how many buffers the NIC currently holds (rq.Posted());
// buffers the NIC consumed while the FLD was down were completed with
// CQEs nobody saw, so the FLD reposts the difference to return the
// ring to full capacity. A ring Start never armed has none to restore.
func (f *FLD) ResyncRx(posted int) {
	f.rx.Abandon()
	if !f.rxArmed {
		return
	}
	f.rx.TopUp(posted)
	f.writeRQDoorbell(f.rx.PI)
}
