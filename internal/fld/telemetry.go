package fld

import "flexdriver/internal/telemetry"

// fldTelemetry holds the FLD data-plane handles that have no Stats
// field behind them. All handles are nil-safe: an FLD without telemetry
// points at uninstrumented and pays one branch per event.
type fldTelemetry struct {
	sqDoorbells *telemetry.Counter // 4 B PI doorbells (WQEByMMIO off)
	wqeMMIO     *telemetry.Counter // full WQEs pushed over MMIO
	rqDoorbells *telemetry.Counter

	// Descriptor compression (§5.2): generateWQE regenerating a full
	// 64 B NIC descriptor from the compressed on-die pool is a hit; a
	// miss means the NIC asked for a descriptor FLD never posted.
	descHits, descMisses *telemetry.Counter
	// Data-window translation lookups serving NIC payload reads.
	dataHits, dataMisses *telemetry.Counter

	txCQEs, rxCQEs *telemetry.Counter

	// Occupancy gauges track high-water marks for sizing analyses.
	poolPages *telemetry.Gauge // buffer-pool pages in use
	descSlots *telemetry.Gauge // descriptor-pool slots in use
}

var uninstrumented fldTelemetry

// SetTelemetry attaches a telemetry scope to the FLD instance: the
// Stats fields published as packet/byte/error counters, doorbell and
// WQE-by-MMIO counts,
// descriptor-compression and data-translation hit/miss counters,
// cuckoo stash-depth funcs, and buffer-pool occupancy high-water
// gauges.
func (f *FLD) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	st := &f.Stats
	sc.CounterVar("tx/packets", &st.TxPackets)
	sc.CounterVar("tx/bytes", &st.TxBytes)
	sc.CounterVar("rx/packets", &st.RxPackets)
	sc.CounterVar("rx/bytes", &st.RxBytes)
	sc.CounterVar("credit_stalls", &st.CreditStalls)
	sc.CounterVar("errors", &st.Errors)
	sc.CounterVar("errors/accel_stalls", &st.AccelStalls)
	sc.CounterVar("errors/recoveries", &st.Recoveries)
	sc.CounterVar("errors/crashes", &st.Crashes)
	sc.CounterVar("errors/crash_drops", &st.CrashDrops)
	sc.CounterVar("errors/crash_lost_cqes", &st.CrashLostCQEs)
	f.tlm = &fldTelemetry{
		sqDoorbells: sc.Counter("doorbells/sq"),
		wqeMMIO:     sc.Counter("doorbells/wqe_mmio"),
		rqDoorbells: sc.Counter("doorbells/rq"),
		descHits:    sc.Counter("xlt/desc_hits"),
		descMisses:  sc.Counter("xlt/desc_misses"),
		dataHits:    sc.Counter("xlt/data_hits"),
		dataMisses:  sc.Counter("xlt/data_misses"),
		txCQEs:      sc.Counter("cqe/tx"),
		rxCQEs:      sc.Counter("cqe/rx"),
		poolPages:   sc.Gauge("pool/pages_in_use"),
		descSlots:   sc.Gauge("pool/desc_in_use"),
	}
	sc.Func("tx_pipe/util", f.txPipe.Utilization)
	sc.Func("rx_pipe/util", f.rxPipe.Utilization)
	sc.Func("xlt/desc_stash", func() float64 { return float64(f.descXlt.StashLen()) })
	sc.Func("xlt/data_stash", func() float64 { return float64(f.dataXlt.StashLen()) })
}

// noteOccupancy refreshes the pool gauges after an alloc or release so
// the high-water marks are exact.
func (f *FLD) noteOccupancy() {
	f.tlm.poolPages.Set(int64(f.cfg.TxBufBytes/f.cfg.TxPageBytes - f.txPool.freePages()))
	f.tlm.descSlots.Set(int64(f.cfg.TxDescPool - f.descAvail()))
}
