// Package rpc is the request/response framing layer the key-value AFU
// serves: fixed 16-byte headers carrying an operation, a status, a
// 64-bit correlation ID and key/value lengths, followed by the key and
// value bytes. Frames ride either directly in a TCP-framed packet (one
// frame per packet, the datapath the scenario fuzzer and exps.KVServe
// drive) or back-to-back in a TCP byte stream (Decoder reassembles them
// across segment boundaries, the shape the scenario's stream sidecar
// uses).
package rpc

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Magic tags every frame's first byte so stray bytes fail fast.
const Magic = 0xF5

// HeaderLen is the fixed frame-header size.
const HeaderLen = 16

// IDOffset is where the 8-byte correlation ID sits inside a frame — the
// workloads stamp send ordinals there, and a response echoes its
// request's ID, so the offset is part of the conservation ledger.
const IDOffset = 8

// Operations and response statuses.
const (
	OpGet  = 1
	OpPut  = 2
	OpResp = 3 // response to either; Status qualifies it

	StatusOK     = 0 // GET hit (value attached) or PUT stored
	StatusMiss   = 1 // GET on an absent key
	StatusFull   = 2 // PUT rejected: store at capacity
	StatusBadReq = 3 // request failed to parse at the server
)

// MaxKeyLen and MaxValLen bound the variable sections (one byte and two
// bytes of length field respectively).
const (
	MaxKeyLen = 255
	MaxValLen = 0xffff
)

// Frame is one parsed RPC frame.
type Frame struct {
	Op     uint8
	Status uint8
	ID     uint64
	Key    []byte
	Val    []byte
}

// clip bounds the variable sections to what their length fields can
// say; Len and Marshal both go through it, so they always agree.
func (f Frame) clip() (key, val []byte) {
	return f.Key[:min(len(f.Key), MaxKeyLen)], f.Val[:min(len(f.Val), MaxValLen)]
}

// Len returns the marshaled size.
func (f Frame) Len() int {
	key, val := f.clip()
	return HeaderLen + len(key) + len(val)
}

// Marshal appends the frame to b, growing it at most once. Key/value
// lengths beyond the field bounds are truncated (the fuzz targets feed
// arbitrary slices).
func (f Frame) Marshal(b []byte) []byte {
	key, val := f.clip()
	b = slices.Grow(b, HeaderLen+len(key)+len(val))
	b = append(b, Magic, f.Op, f.Status, uint8(len(key)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(val)))
	b = append(b, 0, 0) // reserved
	b = binary.BigEndian.AppendUint64(b, f.ID)
	b = append(b, key...)
	return append(b, val...)
}

// errs the parser distinguishes for the decoder's resync logic.
var (
	errShort = errors.New("rpc: truncated frame")
	// ErrBadFrame means the bytes can never begin a valid frame.
	ErrBadFrame = errors.New("rpc: bad frame")
)

// Parse decodes one frame from the front of b and returns it with the
// remaining bytes. It is total on arbitrary input: every outcome is a
// frame, ErrBadFrame, or a truncation error — never a panic. Key and
// value alias b.
func Parse(b []byte) (Frame, []byte, error) {
	if len(b) < HeaderLen {
		return Frame{}, b, errShort
	}
	if b[0] != Magic {
		return Frame{}, b, ErrBadFrame
	}
	var f Frame
	f.Op = b[1]
	if f.Op != OpGet && f.Op != OpPut && f.Op != OpResp {
		return Frame{}, b, ErrBadFrame
	}
	f.Status = b[2]
	klen := int(b[3])
	vlen := int(binary.BigEndian.Uint16(b[4:]))
	f.ID = binary.BigEndian.Uint64(b[IDOffset:])
	total := HeaderLen + klen + vlen
	if len(b) < total {
		return Frame{}, b, errShort
	}
	f.Key = b[HeaderLen : HeaderLen+klen]
	f.Val = b[HeaderLen+klen : total]
	return f, b[total:], nil
}

// Decoder reassembles frames from a byte stream: segments arrive in
// arbitrary chunkings and frames pop out whole. A stream positioned
// mid-frame keeps the partial bytes buffered until the rest arrives.
type Decoder struct {
	buf []byte
	// Bad counts bytes skipped hunting for a frame boundary after
	// garbage (a non-Magic byte where a header should start). On a
	// correct transport this stays zero; the scenario invariants treat
	// any skip as corruption.
	Bad int64
}

// Feed appends stream bytes and returns every complete frame now
// available, in order. Returned frames own their bytes (the internal
// buffer is reused): one backing array per frame, key then value, the
// key capped so that appending to it cannot reach the value. A cursor
// walks the buffer and the unread tail moves once, on the way out.
func (d *Decoder) Feed(p []byte) []Frame {
	d.buf = append(d.buf, p...)
	var out []Frame
	rest := d.buf
	for {
		f, next, err := Parse(rest)
		switch err {
		case nil:
			k := len(f.Key)
			own := append(append(make([]byte, 0, k+len(f.Val)), f.Key...), f.Val...)
			f.Key, f.Val = own[:k:k], own[k:]
			out = append(out, f)
			rest = next
		case ErrBadFrame:
			// Resync: skip one byte and hunt for the next Magic.
			d.Bad++
			rest = rest[1:]
		default: // truncated: wait for more bytes
			if len(rest) < len(d.buf) { // nothing consumed, nothing to move
				d.buf = append(d.buf[:0], rest...)
			}
			return out
		}
	}
}

// Buffered returns the bytes held mid-frame.
func (d *Decoder) Buffered() int { return len(d.buf) }

// Reset discards buffered bytes — required when the carrying transport
// reconnects, since the rest of a half-received frame died with the old
// incarnation and splicing the next incarnation's bytes onto it would
// fabricate a corrupt frame.
func (d *Decoder) Reset() { d.buf = d.buf[:0] }
