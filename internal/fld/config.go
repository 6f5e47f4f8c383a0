// Package fld implements FlexDriver, the paper's primary contribution: an
// on-accelerator hardware module that runs a NIC's data-plane driver so the
// accelerator can drive a commodity NIC over peer-to-peer PCIe with no CPU
// on the data path.
//
// The module exposes a PCIe BAR the NIC reads descriptors from and writes
// packets and completions into — but internally none of those structures
// exist in their NIC-visible form. Descriptors live as 8-byte compressed
// records in a small shared pool reached through a 4-bank cuckoo-hash
// address translation, transmit data lives in a page-granular shared buffer
// pool behind a second translation table, completions are compressed to 15
// bytes, and the receive ring lives in host memory and is recycled in order
// so it never needs on-die storage (paper §5.1–5.2).
package fld

import (
	"fmt"

	"flexdriver/internal/cuckoo"
	"flexdriver/internal/sim"
)

// Config sizes the FLD instance. DefaultConfig matches the Innova-2
// prototype (paper §6: two transmit queues, 256 KiB buffers each side,
// 4096-descriptor pool).
type Config struct {
	// NumTxQueues is the number of transmit queues (SQs/QPs) provisioned.
	NumTxQueues int
	// TxRingEntries is the virtual depth of each transmit ring (what the
	// NIC believes each ring's size is).
	TxRingEntries int
	// TxDescPool is the number of descriptors in the shared physical
	// pool backing all rings through address translation.
	TxDescPool int
	// TxBufBytes / RxBufBytes size the shared transmit and receive data
	// SRAM.
	TxBufBytes int
	RxBufBytes int
	// TxPageBytes is the transmit buffer allocation granule; the data
	// translation table maps virtual pages of this size.
	TxPageBytes int
	// RxStrideBytes is the MPRQ stride; RxWQEBytes is the size of each
	// multi-packet receive buffer posted to the NIC.
	RxStrideBytes int
	RxWQEBytes    int
	// CQEntries sizes the (compressed) completion queues.
	CQEntries int
	// SignalEvery requests a transmit completion once per this many
	// descriptors per queue (selective completion signalling, §6).
	SignalEvery int
	// WQEByMMIO pushes descriptors to the NIC doorbell page instead of
	// letting the NIC read them (§6 PCIe optimizations).
	WQEByMMIO bool

	// ClockMHz and PipelineII give the module's packet-rate ceiling:
	// one packet per II cycles.
	ClockMHz   int
	PipelineII int
	// PipelineDelay is the fixed processing latency through FLD.
	PipelineDelay sim.Duration
}

// DefaultConfig returns the Innova-2 prototype configuration.
func DefaultConfig() Config {
	return Config{
		NumTxQueues:   2,
		TxRingEntries: 2048,
		TxDescPool:    4096,
		TxBufBytes:    256 << 10,
		RxBufBytes:    256 << 10,
		TxPageBytes:   512,
		RxStrideBytes: 256,
		RxWQEBytes:    32 << 10,
		CQEntries:     4096,
		SignalEvery:   16,
		WQEByMMIO:     true,
		ClockMHz:      250,
		PipelineII:    8, // ~31 Mpps per direction at 250 MHz
		PipelineDelay: 150 * sim.Nanosecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumTxQueues < 1 || c.TxDescPool < 1 || c.CQEntries < 1:
		return fmt.Errorf("fld: need at least one tx queue, pool descriptor and CQ entry")
	case c.TxRingEntries < 1 || c.TxRingEntries&(c.TxRingEntries-1) != 0:
		return fmt.Errorf("fld: TxRingEntries must be a positive power of two")
	case c.TxPageBytes < 1 || c.TxPageBytes&(c.TxPageBytes-1) != 0 || c.TxBufBytes < c.TxPageBytes:
		return fmt.Errorf("fld: TxPageBytes must be a power of two no larger than TxBufBytes")
	case c.RxStrideBytes < 1 || c.RxWQEBytes < 1 || c.RxWQEBytes%c.RxStrideBytes != 0:
		return fmt.Errorf("fld: RxWQEBytes must be a positive multiple of the stride")
	case c.RxBufBytes < c.RxWQEBytes || c.RxBufBytes%c.RxWQEBytes != 0:
		return fmt.Errorf("fld: RxBufBytes must be a positive multiple of RxWQEBytes")
	case c.SignalEvery < 1:
		return fmt.Errorf("fld: SignalEvery must be >= 1")
	case c.TxDescPool > 1<<16 || 2*c.TxBufBytes/c.TxPageBytes > 1<<16:
		// Pool slots, pages and a queue's virtual window are uint16-indexed.
		return fmt.Errorf("fld: TxDescPool and 2*TxBufBytes/TxPageBytes must not exceed 65536")
	}
	return nil
}

// PacketInterval is the minimum spacing between packets through the FLD
// pipeline (the clock-rate-derived pps ceiling).
func (c Config) PacketInterval() sim.Duration {
	if c.ClockMHz <= 0 || c.PipelineII <= 0 {
		return 0
	}
	psPerCycle := 1_000_000 / c.ClockMHz // ps at ClockMHz
	return sim.Duration(c.PipelineII * psPerCycle)
}

// Compressed record sizes (Table 2b, FLD column).
const (
	CompressedDescBytes = 8
	CompressedCQEBytes  = 15
	ProducerIndexBytes  = 4
)

// MemoryBreakdown itemizes on-die memory by Table 3's rows, in bytes.
type MemoryBreakdown struct {
	TxRings   int // S_txq: descriptors and their translation table
	TxBuffers int // S_txdata: transmit buffers and their translation table
	RxBuffers int // S_rxdata
	CQ        int // S_cq
	RxRing    int // S_srq (0 for FLD: it lives in host memory, §5.2)
	PI        int // S_pitot
}

// Total sums the breakdown.
func (m MemoryBreakdown) Total() int {
	return m.TxRings + m.TxBuffers + m.RxBuffers + m.CQ + m.RxRing + m.PI
}

// xltBytes sizes a 4-bank cuckoo translation table for n live entries:
// key tag plus the physical index, padded to 4 bytes like the RTL's
// table word.
func xltBytes(n int) int { return cuckoo.SlotsFor(n) * 4 }

// Memory computes the on-die bytes this configuration needs (Table 3's
// FLD column): the shared compressed descriptor pool and the transmit
// pages, each behind its translation table, the receive buffers,
// compressed completions and one producer index per queue plus the
// receive ring's.
func (c Config) Memory() MemoryBreakdown {
	return MemoryBreakdown{
		TxRings:   c.TxDescPool*CompressedDescBytes + xltBytes(c.TxDescPool),
		TxBuffers: c.TxBufBytes + xltBytes(c.TxBufBytes/c.TxPageBytes),
		RxBuffers: c.RxBufBytes,
		CQ:        c.CQEntries * CompressedCQEBytes,
		PI:        (c.NumTxQueues + 1) * ProducerIndexBytes,
	}
}

// Area is a first-order FPGA resource estimate for Table 5-style
// reporting: fixed control logic plus memory mapped onto 36 Kb BRAMs and
// 288 Kb URAMs the way the prototype does (small structures in BRAM, bulk
// packet buffers in URAM).
type Area struct {
	LUT, FF, BRAM, URAM int
}

// Area estimates resources for the configuration. The fixed logic numbers
// are anchored to the prototype's published totals (50K LUT / 66K FF at
// the default configuration, Table 5).
func (c Config) Area() Area {
	const (
		baseLUT = 46000 // ring managers, interface layer, PCIe glue
		baseFF  = 60000
		lutPerQ = 120 // per-queue credit/state logic
		ffPerQ  = 260
	)
	uramBits := 8 * (c.TxBufBytes + c.RxBufBytes)
	bramBits := 8*c.Memory().Total() - uramBits
	return Area{
		LUT:  baseLUT + lutPerQ*c.NumTxQueues,
		FF:   baseFF + ffPerQ*c.NumTxQueues,
		BRAM: (bramBits + 36*1024 - 1) / (36 * 1024),
		URAM: (uramBits + 288*1024 - 1) / (288 * 1024),
	}
}
