package swdriver

import (
	"fmt"

	"flexdriver/internal/telemetry"
)

// drvTelemetry holds the handles that have no Driver field behind them;
// per-port handles live on the EthPort. All handles are nil-safe.
type drvTelemetry struct {
	scope   *telemetry.Scope
	cpuOps  *telemetry.Counter
	jitters *telemetry.Counter
}

// SetTelemetry attaches a telemetry scope to the driver: CPU
// operation/jitter counters, the driver's own error, recovery and crash
// fields published under errors/, crashes and down/ (invariant checkers
// and fldreport read them from the tree instead of peeking at the
// struct), a core-utilization func, and per-port doorbell/batch
// instrumentation for ports created afterwards.
func (d *Driver) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	d.tlm = &drvTelemetry{
		scope:   sc,
		cpuOps:  sc.Counter("cpu/ops"),
		jitters: sc.Counter("cpu/jitter_events"),
	}
	sc.CounterVar("errors/cqe", &d.CQEErrors)
	sc.CounterVar("errors/tx", &d.TxErrors)
	sc.CounterVar("errors/rx", &d.RxErrors)
	sc.CounterVar("errors/recoveries", &d.Recoveries)
	sc.CounterVar("crashes", &d.Crashes)
	sc.CounterVar("down/tx_drops", &d.DownTxDrops)
	sc.CounterVar("down/cqes", &d.DownCQEs)
	sc.Func("cpu/util", d.cpu.Utilization)
}

func (p *EthPort) instrument(sc *telemetry.Scope) {
	s := sc.Scope(fmt.Sprintf("port%d", p.tx.sq.ID))
	p.tTxPosts = s.Counter("tx/posts")
	p.tTxInline = s.Counter("tx/inline")
	p.tx.queued = s.Counter("tx/sw_queued")
	p.tSQDoorbells = s.Counter("tx/doorbells")
	p.rx.doorbells = s.Counter("rx/doorbells")
	p.tRxPackets = s.Counter("rx/packets")
	p.tDBBatch = s.Histogram("tx/doorbell_batch")
	p.tCplBatch = s.Histogram("tx/completion_batch")
}
