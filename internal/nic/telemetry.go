package nic

import (
	"fmt"

	"flexdriver/internal/telemetry"
)

// nicTelemetry holds the NIC scope and the per-reason drop handles.
// Per-queue handles live on the queues themselves (nil-safe: a NIC
// without telemetry pays one branch per event inside each handle
// method).
type nicTelemetry struct {
	scope *telemetry.Scope
	drops map[DropReason]*telemetry.Counter
}

// SetTelemetry attaches a telemetry scope to the NIC: the Stats fields
// published as tx/rx, errors/ and device/ counters, per-reason drop
// counters, engine-utilization funcs, per-queue
// doorbell/WQE/CQE counters (for queues that already exist and queues
// created later), and eSwitch per-table rule-hit counters.
func (n *NIC) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	n.tlm = &nicTelemetry{scope: sc, drops: make(map[DropReason]*telemetry.Counter)}
	st := &n.Stats
	sc.CounterVar("tx/packets", &st.TxPackets)
	sc.CounterVar("tx/bytes", &st.TxBytes)
	sc.CounterVar("rx/packets", &st.RxPackets)
	sc.CounterVar("rx/bytes", &st.RxBytes)
	sc.CounterVar("errors/queue", &st.QueueErrors)
	sc.CounterVar("errors/recovered", &st.QueueRecoveries)
	sc.CounterVar("device/crashes", &st.DeviceCrashes)
	sc.CounterVar("device/flrs", &st.DeviceFLRs)
	sc.Func("tx_engine/util", n.txEngine.Utilization)
	sc.Func("rx_engine/util", n.rxEngine.Utilization)
	for _, vf := range n.VFs() {
		if vf.scope == nil {
			vf.instrument(sc)
		}
	}
	for _, sq := range n.sqs {
		sq.instrument(n.queueScope(sq.vf))
	}
	for _, rq := range n.rqs {
		rq.instrument(n.queueScope(rq.vf))
	}
	for _, cq := range n.cqs {
		cq.instrument(n.queueScope(cq.vf))
	}
	n.esw.setTelemetry(sc.Scope("eswitch"))
}

// drop records a packet/doorbell drop in Stats and, when telemetry is
// attached, in a per-reason counter — the one event still counted twice:
// Stats.Drops stays a map callers index by reason, a map value cannot
// be published by address, and drops/<reason> must not exist until that
// reason first occurs. Drops are off the hot path.
func (n *NIC) drop(reason DropReason) {
	n.Stats.drop(reason)
	if t := n.tlm; t != nil {
		c := t.drops[reason]
		if c == nil {
			c = t.scope.Counter("drops/" + string(reason))
			t.drops[reason] = c
		}
		c.Inc()
	}
}

// dropFrame counts a frame's drop and puts it back.
func (n *NIC) dropFrame(reason DropReason, buf []byte) {
	n.drop(reason)
	n.eng.Bufs().Put(buf)
}

func (sq *SQ) instrument(sc *telemetry.Scope) {
	s := sc.Scope(fmt.Sprintf("sq%d", sq.ID))
	sq.tDoorbells = s.Counter("doorbells")
	sq.tWQEMMIO = s.Counter("wqe_mmio")
	sq.tFetchReads = s.Counter("wqe_fetch_reads")
	sq.tFetchedWQEs = s.Counter("wqe_fetched")
	sq.tExecuted = s.Counter("wqe_executed")
	sq.tShaped = s.Counter("shaper_delays")
	sq.tFetchBatch = s.Histogram("fetch_batch")
}

func (rq *RQ) instrument(sc *telemetry.Scope) {
	s := sc.Scope(fmt.Sprintf("rq%d", rq.ID))
	rq.tDoorbells = s.Counter("doorbells")
	rq.tFetchReads = s.Counter("desc_fetch_reads")
	rq.tFetchedDescs = s.Counter("desc_fetched")
	rq.tPlaced = s.Counter("packets")
	rq.tPlacedBytes = s.Counter("bytes")
}

func (cq *CQ) instrument(sc *telemetry.Scope) {
	cq.tCQEs = sc.Scope(fmt.Sprintf("cq%d", cq.ID)).Counter("cqes")
}

// eswTelemetry counts rule activity: hits per table.
type eswTelemetry struct {
	scope *telemetry.Scope
	hits  map[int]*telemetry.Counter
}

func (e *ESwitch) setTelemetry(sc *telemetry.Scope) {
	t := &eswTelemetry{scope: sc, hits: make(map[int]*telemetry.Counter)}
	e.tlm = t
	sc.Func("loopback_util", e.loopback.Utilization)
	for table := range e.tables {
		t.table(table)
	}
}

// table returns (creating on first use) the hit counter for a table.
func (t *eswTelemetry) table(table int) *telemetry.Counter {
	c := t.hits[table]
	if c == nil {
		c = t.scope.Counter(fmt.Sprintf("table%d/hits", table))
		t.hits[table] = c
	}
	return c
}
