// Package nic models a ConnectX-5-class commodity NIC at the level of its
// driver-facing contract: send/receive/completion queues with byte-exact
// descriptor formats fetched and written over PCIe, doorbells, an embedded
// switch with match-action tables, RSS, VXLAN tunnel decapsulation,
// token-bucket traffic shaping, and an RDMA reliable-connection transport
// with go-back-N recovery.
//
// FlexDriver's thesis is that an accelerator can drive an *unmodified* NIC,
// so this package is written with no knowledge of FlexDriver: everything a
// consumer needs is expressed through rings, descriptors and doorbells,
// whether the consumer is the software driver baseline or the FLD hardware
// module.
package nic

import (
	"encoding/binary"
	"fmt"
)

// Descriptor sizes (Table 2b, "Software" column).
const (
	SendWQESize = 64 // S_txdesc
	RecvWQESize = 16 // S_rxdesc
	CQESize     = 64 // S_cqe
)

// Send opcodes.
const (
	OpSend    = 0x0a // transmit a message / raw frame
	OpSendInl = 0x0e // payload inlined in the WQE (unused by FLD)
	OpNop     = 0x00
	opInvalid = 0xff

	// maxInlineB is the inline capacity of a ring-resident 64 B WQE;
	// maxInlineMMIO is the capacity of a BlueFlame-style 128 B
	// double-block WQE pushed over MMIO (small-packet latency path).
	maxInlineB      = 32
	maxInlineMMIO   = 96
	SendWQEMMIOSize = 128
)

// SendWQE is the 64-byte transmit descriptor the NIC fetches from the send
// ring (or receives pushed over MMIO, the "WQE-by-MMIO" optimization).
//
// Layout (big endian, simplified from the ConnectX programming model but
// with the same 64 B footprint):
//
//	0:4    opcode(1) | signature(1) | wqe index(2)
//	4:8    QP/SQ number
//	8:9    flags: bit0 = signal completion, bit1 = inline
//	9:12   reserved
//	12:16  flow tag / context id
//	16:24  data address (PCIe space)
//	24:28  data byte count
//	28:32  lkey (unused in the model, kept for format fidelity)
//	32:64  inline payload area (up to 32 B) / reserved
type SendWQE struct {
	Opcode  uint8
	Index   uint16
	QPN     uint32
	Signal  bool
	FlowTag uint32
	Addr    uint64
	Len     uint32
	Inline  []byte // used instead of Addr/Len when non-nil
}

// Marshal encodes the WQE into its wire format: 64 bytes for ring
// descriptors (inline up to 32 B), or a BlueFlame-style 128-byte double
// block when the inline payload needs it (valid only for MMIO pushes).
func (w SendWQE) Marshal() []byte {
	b := make([]byte, w.WireSize())
	w.MarshalInto(b)
	return b
}

// WireSize returns the encoded size: 64 bytes, or the 128-byte MMIO double
// block when the inline payload needs it.
func (w SendWQE) WireSize() int {
	if len(w.Inline) > maxInlineB {
		if len(w.Inline) > maxInlineMMIO {
			panic(fmt.Sprintf("nic: inline payload %d exceeds %d bytes", len(w.Inline), maxInlineMMIO))
		}
		return SendWQEMMIOSize
	}
	return SendWQESize
}

// MarshalInto encodes the WQE into b, which must be at least WireSize()
// bytes; every byte of the descriptor is (re)written, so b may be a dirty
// recycled buffer (e.g. from a sim.BufPool or a per-ring scratch array).
func (w SendWQE) MarshalInto(b []byte) {
	b = b[:w.WireSize()]
	clear(b)
	b[0] = w.Opcode
	binary.BigEndian.PutUint16(b[2:], w.Index)
	binary.BigEndian.PutUint32(b[4:], w.QPN)
	if w.Signal {
		b[8] |= 1
	}
	if w.Inline != nil {
		b[8] |= 2
		binary.BigEndian.PutUint32(b[24:], uint32(len(w.Inline)))
		copy(b[32:], w.Inline)
	} else {
		binary.BigEndian.PutUint64(b[16:], w.Addr)
		binary.BigEndian.PutUint32(b[24:], w.Len)
	}
	binary.BigEndian.PutUint32(b[12:], w.FlowTag)
}

// ParseSendWQE decodes a 64-byte send descriptor.
func ParseSendWQE(b []byte) (SendWQE, error) {
	if len(b) < SendWQESize {
		return SendWQE{}, fmt.Errorf("nic: send WQE too short (%d bytes)", len(b))
	}
	w := SendWQE{
		Opcode:  b[0],
		Index:   binary.BigEndian.Uint16(b[2:]),
		QPN:     binary.BigEndian.Uint32(b[4:]),
		Signal:  b[8]&1 != 0,
		FlowTag: binary.BigEndian.Uint32(b[12:]),
	}
	if b[8]&2 != 0 {
		n := binary.BigEndian.Uint32(b[24:])
		if int(n) > len(b)-32 || n > maxInlineMMIO {
			return SendWQE{}, fmt.Errorf("nic: inline length %d out of range", n)
		}
		// Inline aliases b, like every borrowed read: a caller that keeps
		// the payload past b's life copies it. It is non-nil even for a
		// zero-length payload: the flag bit, not the slice length, selects
		// the inline path, and Marshal keys on Inline != nil. Found by
		// FuzzParseSendWQE.
		w.Inline = b[32 : 32+n : 32+n]
	} else {
		w.Addr = binary.BigEndian.Uint64(b[16:])
		w.Len = binary.BigEndian.Uint32(b[24:])
	}
	return w, nil
}

// RecvWQE is the 16-byte receive descriptor: a pointer to a buffer (for
// MPRQ, a multi-stride buffer).
//
//	0:8   buffer address (PCIe space)
//	8:12  buffer byte count
//	12:16 stride size log2(1) | reserved(3)
type RecvWQE struct {
	Addr       uint64
	Len        uint32
	StrideLog2 uint8 // 0 means a plain single-packet buffer
}

// Marshal encodes the receive descriptor.
func (w RecvWQE) Marshal() []byte {
	b := make([]byte, RecvWQESize)
	w.MarshalInto(b)
	return b
}

// MarshalInto encodes the descriptor into b (at least RecvWQESize bytes),
// rewriting every byte so recycled buffers are safe.
func (w RecvWQE) MarshalInto(b []byte) {
	b = b[:RecvWQESize]
	binary.BigEndian.PutUint64(b[0:], w.Addr)
	binary.BigEndian.PutUint32(b[8:], w.Len)
	b[12] = w.StrideLog2
	for i := 13; i < RecvWQESize; i++ {
		b[i] = 0
	}
}

// ParseRecvWQE decodes a 16-byte receive descriptor.
func ParseRecvWQE(b []byte) (RecvWQE, error) {
	if len(b) < RecvWQESize {
		return RecvWQE{}, fmt.Errorf("nic: recv WQE too short (%d bytes)", len(b))
	}
	return RecvWQE{
		Addr:       binary.BigEndian.Uint64(b[0:]),
		Len:        binary.BigEndian.Uint32(b[8:]),
		StrideLog2: b[12],
	}, nil
}

// CQE opcodes.
const (
	CQESend     = 1 // transmit completion
	CQERecv     = 2 // receive completion
	CQEError    = 3
	CQERecvFrag = 4 // receive completion for a non-final RDMA packet
)

// CQE is the 64-byte completion the NIC DMA-writes into a completion
// queue.
//
//	0:1    opcode
//	1:2    flags: bit0 = L3/L4 checksum ok, bit1 = last packet of message
//	2:4    wqe index / stride index
//	4:8    queue number (SQ or RQ/SRQ)
//	8:12   byte count
//	12:16  flow tag (context id for FLD-E virtualization)
//	16:20  RSS hash
//	20:24  remote QPN (RDMA) / 0
//	24:32  buffer address the packet landed at (rx)
//	32:36  wrapped consumer counter for ownership tracking
//	36:37  syndrome (error code)
//	63     owner/validity bit
type CQE struct {
	Opcode     uint8
	ChecksumOK bool
	Last       bool
	Index      uint16
	Queue      uint32
	ByteCount  uint32
	FlowTag    uint32
	RSSHash    uint32
	RemoteQPN  uint32
	Addr       uint64
	Counter    uint32
	Syndrome   uint8
}

// Marshal encodes the CQE into its 64-byte format with the owner bit set.
func (c CQE) Marshal() []byte {
	b := make([]byte, CQESize)
	c.MarshalInto(b)
	return b
}

// MarshalInto encodes the CQE into b (at least CQESize bytes), rewriting
// every byte so recycled buffers are safe.
func (c CQE) MarshalInto(b []byte) {
	b = b[:CQESize]
	clear(b)
	b[0] = c.Opcode
	if c.ChecksumOK {
		b[1] |= 1
	}
	if c.Last {
		b[1] |= 2
	}
	binary.BigEndian.PutUint16(b[2:], c.Index)
	binary.BigEndian.PutUint32(b[4:], c.Queue)
	binary.BigEndian.PutUint32(b[8:], c.ByteCount)
	binary.BigEndian.PutUint32(b[12:], c.FlowTag)
	binary.BigEndian.PutUint32(b[16:], c.RSSHash)
	binary.BigEndian.PutUint32(b[20:], c.RemoteQPN)
	binary.BigEndian.PutUint64(b[24:], c.Addr)
	binary.BigEndian.PutUint32(b[32:], c.Counter)
	b[36] = c.Syndrome
	b[63] = 1
}

// ParseCQE decodes a 64-byte completion. It returns an error when the
// owner bit is clear (stale entry).
func ParseCQE(b []byte) (CQE, error) {
	if len(b) < CQESize {
		return CQE{}, fmt.Errorf("nic: CQE too short (%d bytes)", len(b))
	}
	if b[63] != 1 {
		return CQE{}, fmt.Errorf("nic: CQE not valid (owner bit clear)")
	}
	return CQE{
		Opcode:     b[0],
		ChecksumOK: b[1]&1 != 0,
		Last:       b[1]&2 != 0,
		Index:      binary.BigEndian.Uint16(b[2:]),
		Queue:      binary.BigEndian.Uint32(b[4:]),
		ByteCount:  binary.BigEndian.Uint32(b[8:]),
		FlowTag:    binary.BigEndian.Uint32(b[12:]),
		RSSHash:    binary.BigEndian.Uint32(b[16:]),
		RemoteQPN:  binary.BigEndian.Uint32(b[20:]),
		Addr:       binary.BigEndian.Uint64(b[24:]),
		Counter:    binary.BigEndian.Uint32(b[32:]),
		Syndrome:   b[36],
	}, nil
}
