package swdriver

// Failure domains: host driver crash–restart. While down the driver
// process is gone — application sends are dropped and counted, and
// completions land in rings nobody polls (the NIC keeps DMA-ing; the
// dead process just never observes them, so SQ slots stop freeing and
// RX buffers stop recycling until the restart reattaches). Restart
// models the process coming back and re-initializing its queues:
// in-flight transmit work is flushed and counted lost, receive rings
// are reset and topped back up to full capacity.

// Down reports whether the driver process is currently crashed.
func (d *Driver) Down() bool { return d.downN > 0 }

// Crash kills the driver process. The software queues die with its
// address space: queued-but-unposted frames are counted lost
// immediately. Crashes nest like nic.Crash.
func (d *Driver) Crash() {
	d.downN++
	if d.downN > 1 {
		return
	}
	d.Crashes++
	for _, q := range d.queues {
		q.crash()
	}
}

// crash is one queue set's share of Driver.Crash: what lived only in the
// process's memory (software queue, pending doorbell, half-reassembled
// message) is gone.
func (p *EthPort) crash() {
	p.tx.crash()
	p.dbTimer.Stop()
	p.sincedb = 0
}

func (e *RDMAEndpoint) crash() {
	e.tx.crash()
	e.cur = e.cur[:0]
}

// Restart brings the process back; when the last crash window lifts,
// the driver reattaches every port and endpoint.
func (d *Driver) Restart() {
	if d.downN == 0 {
		return
	}
	d.downN--
	if d.downN > 0 {
		return
	}
	for _, q := range d.queues {
		q.reattach()
	}
}

// reattach is the restarted process re-initializing one port: flush the
// TX ring (in-flight work is lost — the restart has no record of it),
// reset an errored RQ, and top the receive ring back up to full
// capacity (buffers consumed while nobody recycled them would otherwise
// stay lost). Queue resets are no-ops while the NIC itself is down; the
// supervision ladder retries until they stick.
func (p *EthPort) reattach() {
	p.flushTx()
	p.rqSinceDB = 0
	p.rx.reattach()
}

// reattach re-initializes one RDMA endpoint after a crash–restart: the
// ring-level equivalent of Poll's recovery, applied unconditionally,
// plus the receive-capacity top-up. QP-level reconnection (both ends)
// stays with ReconnectEndpoints.
func (e *RDMAEndpoint) reattach() {
	e.cur = nil
	e.tx.flush()
	e.rx.reattach()
}
