// Package memmodel implements the paper's driver-memory analysis (§4.3,
// Tables 2 and 3) and its scalability sweep (Figure 4): how many bytes of
// NIC control structures a conventional software driver needs versus
// FlexDriver with its compression, address-translation, MPRQ and
// ring-in-host-memory optimizations.
package memmodel

import (
	"math"

	"flexdriver/internal/cuckoo"
	"flexdriver/internal/fld"
	"flexdriver/internal/nic"
)

// Params are the analysis inputs (Table 2a).
type Params struct {
	BandwidthGbps float64 // B
	MinPacket     int     // M_min, bytes
	MaxPacket     int     // M_max, bytes
	RxLifetimeUs  float64 // L_rx
	TxLifetimeUs  float64 // L_tx
	TxQueues      int     // N_q
}

// PaperParams returns the configuration of Table 2a: 100 Gbps, 256 B min
// packets, 16 KiB max messages, 5/25 us lifetimes, 512 transmit queues.
func PaperParams() Params {
	return Params{
		BandwidthGbps: 100,
		MinPacket:     256,
		MaxPacket:     16 << 10,
		RxLifetimeUs:  5,
		TxLifetimeUs:  25,
		TxQueues:      512,
	}
}

// Derived holds the intermediate quantities of Table 2a.
type Derived struct {
	PacketRateMpps float64 // R
	TxDescriptors  int     // N_txdesc
	RxDescriptors  int     // N_rxdesc
	TxBDPBytes     int     // S_txbdp
	RxBDPBytes     int     // S_rxbdp
}

// Derive computes Table 2a's derived rows.
func (p Params) Derive() Derived {
	bps := p.BandwidthGbps * 1e9
	r := bps / (float64(p.MinPacket+nic.EthWireOverhead) * 8)
	return Derived{
		PacketRateMpps: r / 1e6,
		TxDescriptors:  int(math.Ceil(r * p.TxLifetimeUs / 1e6)),
		RxDescriptors:  int(math.Ceil(r * p.RxLifetimeUs / 1e6)),
		TxBDPBytes:     int(bps / 8 * p.TxLifetimeUs / 1e6),
		RxBDPBytes:     int(bps / 8 * p.RxLifetimeUs / 1e6),
	}
}

// F rounds n up to a power of two (the paper's f(n) allocation rounding).
func F(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits(uint(n-1))
}

func bits(v uint) uint {
	n := uint(0)
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// Software computes the conventional-driver column of Table 3: a full
// ring of the NIC's own descriptors per queue, max-size buffers per
// descriptor, full-size completions and an on-die receive ring.
func (p Params) Software() fld.MemoryBreakdown {
	d := p.Derive()
	return fld.MemoryBreakdown{
		TxRings:   p.TxQueues * F(d.TxDescriptors) * nic.SendWQESize,
		TxBuffers: p.MaxPacket * d.TxDescriptors,
		RxBuffers: p.MaxPacket * d.RxDescriptors,
		CQ:        (F(d.TxDescriptors) + F(d.RxDescriptors)) * nic.CQESize,
		RxRing:    F(d.RxDescriptors) * nic.RecvWQESize,
		PI:        (p.TxQueues + 1) * fld.ProducerIndexBytes,
	}
}

// ConnEntryBytes is the packed per-connection state of the TCP-offload
// connection table: the 4-tuple folded to the cuckoo key, 32-bit
// send/receive sequence cursors, the advertised window and flags — 16 B
// per live connection.
const ConnEntryBytes = 16

// ConnTableBytes sizes the connection table for n live connections the
// same way the translation tables are sized: a 4-bank cuckoo layout at
// the banks' provisioned load factor, ConnEntryBytes per slot. This is
// the SRAM term a TCP-serving AFU (internal/accel/kv) adds on top of
// the driver structures in FLD().
func ConnTableBytes(n int) int {
	return cuckoo.SlotsFor(n) * ConnEntryBytes
}

// ConnTableFits reports whether n connections' table plus the FLD
// driver structures stay inside the prototype FPGA's on-chip memory
// (the Figure 4 budget line), and the total bytes it compared.
func (p Params) ConnTableFits(n int) (total int, ok bool) {
	total = p.FLD().Total() + ConnTableBytes(n)
	return total, total <= XCKU15PBytes
}

// FLDConfig is the FLD configuration Table 2a provisions: a shared
// descriptor pool of F(N_txdesc), buffer pools at twice the
// bandwidth-delay product in 512 B pages, and a CQ of
// F(N_txdesc)+F(N_rxdesc) entries. It prices Table 3's FLD column and is
// not a configuration to run: fld.Config.Validate rejects it, since its
// receive pool is not a whole number of receive buffers.
func (p Params) FLDConfig() fld.Config {
	d := p.Derive()
	c := fld.DefaultConfig()
	c.NumTxQueues, c.TxDescPool, c.TxPageBytes = p.TxQueues, F(d.TxDescriptors), 512
	c.TxBufBytes, c.RxBufBytes = 2*d.TxBDPBytes, 2*d.RxBDPBytes
	c.CQEntries = F(d.TxDescriptors) + F(d.RxDescriptors)
	return c
}

// FLD computes the FlexDriver column of Table 3 from the memory
// accounting of FLDConfig.
func (p Params) FLD() fld.MemoryBreakdown { return p.FLDConfig().Memory() }

// Shrink reports the software/FLD ratio for each row and the total
// (Table 3's rightmost column).
type Shrink struct {
	TxRings, TxBuffers, RxBuffers, CQ, Total float64
}

// ShrinkRatios computes Table 3's shrink column.
func (p Params) ShrinkRatios() Shrink {
	sw, fl := p.Software(), p.FLD()
	div := func(a, b int) float64 {
		if b == 0 {
			return math.Inf(1)
		}
		return float64(a) / float64(b)
	}
	return Shrink{
		TxRings:   div(sw.TxRings, fl.TxRings),
		TxBuffers: div(sw.TxBuffers, fl.TxBuffers),
		RxBuffers: div(sw.RxBuffers, fl.RxBuffers),
		CQ:        div(sw.CQ, fl.CQ),
		Total:     div(sw.Total(), fl.Total()),
	}
}

// ScalePoint is one Figure 4 sample.
type ScalePoint struct {
	BandwidthGbps float64
	TxQueues      int
	SoftwareBytes int
	FLDBytes      int
}

// XCKU15PBytes is the prototype FPGA's total on-chip memory (10.05 MiB),
// the budget line in Figure 4.
const XCKU15PBytes = 10539581 // 10.05 MiB

// ScalabilitySweep evaluates both designs over line rates and queue
// counts (Figure 4).
func ScalabilitySweep(rates []float64, queues []int) []ScalePoint {
	var out []ScalePoint
	base := PaperParams()
	for _, r := range rates {
		for _, q := range queues {
			p := base
			p.BandwidthGbps = r
			p.TxQueues = q
			out = append(out, ScalePoint{
				BandwidthGbps: r,
				TxQueues:      q,
				SoftwareBytes: p.Software().Total(),
				FLDBytes:      p.FLD().Total(),
			})
		}
	}
	return out
}
