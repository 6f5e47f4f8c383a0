package zuc

import (
	"encoding/binary"
	"fmt"
)

// This file implements the paper's stated future work for the
// disaggregated cipher (§8.2.1): "This result can be further improved by
// adding on-FPGA key storage and request batching."
//
//   - Key storage: a client registers its key once (OpSetKey); subsequent
//     requests use a compact 24-byte header carrying only a key slot,
//     instead of shipping the 16-byte key inside a 64-byte header on
//     every request.
//   - Request batching: many short requests ride in one RDMA message,
//     amortizing the per-message RoCE framing and ACK overhead.

// Extension opcodes and framing magic.
const (
	OpSetKey = 4

	ShortHeaderBytes = 24
	batchHeaderBytes = 4

	magicFull  = 'C' // "ZC": full 64 B header (afu.go)
	magicShort = 's' // "Zs": compact header with key slot
	magicBatch = 'B' // "ZB": batch container
)

// ShortRequest is the compact request: the key lives on the accelerator,
// referenced by slot.
//
//	0:2   "Zs"
//	2:3   op
//	3:4   bearer<<3 | direction<<2
//	4:6   key slot
//	6:8   reserved
//	8:12  count
//	12:16 request id
//	16:20 payload bit length
//	20:24 reserved
type ShortRequest struct {
	Op        uint8
	Bearer    uint8
	Direction uint8
	KeySlot   uint16
	Count     uint32
	ID        uint32
	BitLen    int
	Payload   []byte
}

// Marshal encodes header+payload.
func (r ShortRequest) Marshal() []byte {
	b := make([]byte, ShortHeaderBytes+len(r.Payload))
	r.putHeader(b)
	copy(b[ShortHeaderBytes:], r.Payload)
	return b
}

// putHeader writes the 24-byte header into b, which must be zeroed.
func (r ShortRequest) putHeader(b []byte) {
	b[0], b[1] = 'Z', magicShort
	b[2] = r.Op
	b[3] = r.Bearer<<3 | r.Direction<<2
	binary.BigEndian.PutUint16(b[4:], r.KeySlot)
	binary.BigEndian.PutUint32(b[8:], r.Count)
	binary.BigEndian.PutUint32(b[12:], r.ID)
	binary.BigEndian.PutUint32(b[16:], uint32(r.BitLen))
}

// ParseShortRequest decodes a compact request.
func ParseShortRequest(b []byte) (ShortRequest, error) {
	if len(b) < ShortHeaderBytes {
		return ShortRequest{}, fmt.Errorf("zuc: short request truncated (%d bytes)", len(b))
	}
	if b[0] != 'Z' || b[1] != magicShort {
		return ShortRequest{}, fmt.Errorf("zuc: bad short-request magic")
	}
	r := ShortRequest{
		Op:        b[2] &^ respFlag,
		Bearer:    b[3] >> 3,
		Direction: b[3] >> 2 & 1,
		KeySlot:   binary.BigEndian.Uint16(b[4:]),
		Count:     binary.BigEndian.Uint32(b[8:]),
		ID:        binary.BigEndian.Uint32(b[12:]),
		BitLen:    int(binary.BigEndian.Uint32(b[16:])),
		Payload:   b[ShortHeaderBytes:],
	}
	if r.BitLen > len(r.Payload)*8 {
		return ShortRequest{}, fmt.Errorf("zuc: short request bit length out of range")
	}
	return r, nil
}

// MarshalBatch packs encoded requests (full or short) into one batch
// message:
//
//	0:2 "ZB"  2:4 entry count, then per entry: 4-byte length + body.
func MarshalBatch(entries [][]byte) []byte {
	size := batchHeaderBytes
	for _, e := range entries {
		size += 4 + len(e)
	}
	b := make([]byte, 0, size)
	b = append(b, 'Z', magicBatch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(entries)))
	for _, e := range entries {
		b = binary.BigEndian.AppendUint32(b, uint32(len(e)))
		b = append(b, e...)
	}
	return b
}

// ParseBatch splits a batch message into its entries.
func ParseBatch(b []byte) ([][]byte, error) {
	if len(b) < batchHeaderBytes || b[0] != 'Z' || b[1] != magicBatch {
		return nil, fmt.Errorf("zuc: not a batch message")
	}
	n := int(binary.BigEndian.Uint16(b[2:]))
	b = b[batchHeaderBytes:]
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("zuc: batch truncated at entry %d", i)
		}
		l := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if len(b) < l {
			return nil, fmt.Errorf("zuc: batch entry %d truncated", i)
		}
		out = append(out, b[:l])
		b = b[l:]
	}
	return out, nil
}

// --- Client-side extension API -------------------------------------------

// SetKey registers a key in the accelerator's on-FPGA key store.
func (c *Cryptodev) SetKey(slot uint16, key [16]byte) {
	req := Request{Op: OpSetKey, Key: key, ID: 0, BitLen: 0}
	b := req.Marshal()
	binary.BigEndian.PutUint16(b[44:], 0) // no payload bits
	// Reuse the full-header format; the slot rides in the count field.
	binary.BigEndian.PutUint32(b[4:], uint32(slot))
	c.ep.Send(b)
}

// EnqueueShort submits an operation that references a stored key.
func (c *Cryptodev) EnqueueShort(op *Op, slot uint16) {
	c.nextID++
	op.id = c.nextID
	op.SubmittedAt = c.eng.Now()
	c.inflight[op.id] = op
	r := ShortRequest{Op: op.Op, Bearer: op.Bearer, Direction: op.Direction,
		KeySlot: slot, Count: op.Count, ID: op.id,
		BitLen: len(op.Data) * 8, Payload: op.Data}
	c.ep.Send(r.Marshal())
}

// EnqueueBatch submits many stored-key operations in one RDMA message.
func (c *Cryptodev) EnqueueBatch(ops []*Op, slot uint16) {
	entries := make([][]byte, 0, len(ops))
	for _, op := range ops {
		c.nextID++
		op.id = c.nextID
		op.SubmittedAt = c.eng.Now()
		c.inflight[op.id] = op
		r := ShortRequest{Op: op.Op, Bearer: op.Bearer, Direction: op.Direction,
			KeySlot: slot, Count: op.Count, ID: op.id,
			BitLen: len(op.Data) * 8, Payload: op.Data}
		entries = append(entries, r.Marshal())
	}
	c.ep.Send(MarshalBatch(entries))
}
