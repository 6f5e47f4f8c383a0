// Package pcie models a PCI-Express fabric at transaction-layer-packet
// (TLP) granularity: memory writes, memory reads and their completions,
// routed through a switch by BAR address, with per-direction link bandwidth
// and per-TLP wire overhead accounted exactly.
//
// FlexDriver's whole performance argument rests on PCIe control-traffic
// overhead (descriptors, doorbells, completions competing with packet data
// for link bytes), so the fabric model is byte-accurate on the wire even
// though devices execute their MMIO handlers functionally.
package pcie

import (
	"fmt"

	"flexdriver/internal/sim"
)

// Device is a PCIe endpoint exposing a single BAR.
//
// MMIO handlers run functionally (in zero virtual time); the fabric charges
// all wire time on the links before invoking them.
type Device interface {
	// PCIeName identifies the device in errors and traces.
	PCIeName() string
	// BARSize returns the size in bytes of the device's BAR window.
	BARSize() uint64
	// MMIORead fills dst with the bytes at offset into the BAR; false
	// means the completer does not respond.
	MMIORead(offset uint64, dst []byte) bool
	// MMIOWrite stores data at offset into the BAR.
	MMIOWrite(offset uint64, data []byte)
}

// LinkConfig describes one PCIe link and the TLP parameters negotiated on
// it. The defaults produced by Gen3x8 match the Innova-2's internal fabric.
type LinkConfig struct {
	Gen   int // PCIe generation, 1-5
	Lanes int // lane count: 1, 2, 4, 8, 16

	MaxPayload int // bytes per MWr/CplD TLP payload (MPS), typically 256
	MaxReadReq int // bytes per MRd request (MRRS), typically 512

	// Per-TLP wire overhead in bytes: transaction-layer header plus
	// data-link (sequence number + LCRC) and physical framing.
	HdrPosted     int // MWr: 4DW header (16 B) + 8 B DL/PHY
	HdrNonPosted  int // MRd request: same framing, no payload
	HdrCompletion int // CplD: 3DW header (12 B) + 8 B DL/PHY

	// DLLPEfficiency accounts for ACK/NAK and flow-control DLLPs that
	// consume raw bandwidth (~2 %; per-TLP header overhead is charged
	// separately by the WireBytes accounting).
	DLLPEfficiency float64

	// PropDelay is the one-way propagation plus forwarding latency of the
	// link (serialization is charged separately).
	PropDelay sim.Duration

	// CplTimeout is the completion timeout of every non-posted
	// request issued through this port. If the completion has not
	// arrived when it expires, the requester receives a CplTimeout
	// error completion. Zero selects a default at Attach time (real
	// devices default to the 50µs-50ms range; the model uses a much
	// tighter value so recovery is exercised within simulation windows).
	CplTimeout sim.Duration
}

// DefaultCplTimeout is applied at Attach when LinkConfig.CplTimeout is
// zero. It is deliberately shorter than the NIC's RDMA retransmission
// timeout (100µs) so a PCIe-level fault resolves before transport-level
// recovery piles on top of it.
const DefaultCplTimeout = 20 * sim.Microsecond

// CplStatus is the completion status of a non-posted transaction,
// mirroring the TLP completion-status field.
type CplStatus uint8

const (
	// CplSuccess is a successful completion carrying data.
	CplSuccess CplStatus = iota
	// CplUR reports an Unsupported Request: no device claimed the
	// address, or the completer refused the transaction.
	CplUR
	// CplTimedOut reports that the requester's completion timeout fired
	// before any completion arrived (completer wedged or link down).
	CplTimedOut
	// CplPoisoned reports a completion whose payload was corrupted in
	// flight (EP bit); the data must not be consumed.
	CplPoisoned
)

// Completion is the result of a timed Port.Read. Data is valid only when
// OK() reports true, and only during the callback, which borrows it from
// the engine's BufPool: a reader that keeps the bytes copies them.
type Completion struct {
	Data   []byte
	Status CplStatus
}

// OK reports whether the completion carries usable data.
func (c Completion) OK() bool { return c.Status == CplSuccess }

// Gen3x8 returns the link configuration of the Innova-2's internal PCIe
// Gen3 x8 connections (NIC-FPGA and NIC-host).
func Gen3x8() LinkConfig {
	return LinkConfig{
		Gen:            3,
		Lanes:          8,
		MaxPayload:     256,
		MaxReadReq:     512,
		HdrPosted:      24,
		HdrNonPosted:   24,
		HdrCompletion:  20,
		DLLPEfficiency: 0.98,
		PropDelay:      60 * sim.Nanosecond,
	}
}

// perLaneGbps returns the raw per-lane signalling rate in Gbit/s.
func perLaneGbps(gen int) float64 {
	switch gen {
	case 1:
		return 2.5
	case 2:
		return 5
	case 3:
		return 8
	case 4:
		return 16
	case 5:
		return 32
	default:
		panic(fmt.Sprintf("pcie: unknown generation %d", gen))
	}
}

// encoding returns the line-coding efficiency for the generation.
func encoding(gen int) float64 {
	if gen <= 2 {
		return 0.8 // 8b/10b
	}
	return 128.0 / 130.0
}

// RawRate returns the post-encoding data rate of the link (both TLP and
// DLLP traffic share it).
func (c LinkConfig) RawRate() sim.BitRate {
	return sim.BitRate(perLaneGbps(c.Gen)*float64(c.Lanes)*encoding(c.Gen)) * sim.Gbps
}

// EffectiveRate returns the rate available to TLP bytes after DLLP
// overhead. For Gen3 x8 this is ~60 Gbps; actual goodput is further reduced
// by per-TLP headers, which WireBytes* account for.
func (c LinkConfig) EffectiveRate() sim.BitRate {
	return sim.BitRate(float64(c.RawRate()) * c.DLLPEfficiency)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// WriteWireBytes returns total wire bytes to post an n-byte memory write,
// including per-TLP overhead after MPS splitting. Zero-byte writes still
// cost one header (used for doorbells modeled as 4-byte writes).
func (c LinkConfig) WriteWireBytes(n int) int {
	if n <= 0 {
		return c.HdrPosted
	}
	return n + ceilDiv(n, c.MaxPayload)*c.HdrPosted
}

// ReadReqWireBytes returns the wire bytes of the MRd requests needed to
// fetch n bytes (requests carry no payload).
func (c LinkConfig) ReadReqWireBytes(n int) int {
	if n <= 0 {
		return 0
	}
	return ceilDiv(n, c.MaxReadReq) * c.HdrNonPosted
}

// CompletionWireBytes returns the wire bytes of the CplD stream returning n
// bytes of read data, split at MPS boundaries.
func (c LinkConfig) CompletionWireBytes(n int) int {
	if n <= 0 {
		return c.HdrCompletion
	}
	return n + ceilDiv(n, c.MaxPayload)*c.HdrCompletion
}
