package rpc

import (
	"bytes"
	"testing"
)

// FuzzRPCFrameCodec drives the frame parser and the stream decoder with
// arbitrary bytes. Four properties, all load-bearing for the KV serving
// path: Parse is total (frame, bad-frame or truncation — never a
// panic), every parsed frame survives a Marshal/Parse round trip, Len
// is Marshal's length for any key and value — beyond the field bounds
// too, since the kv AFU sizes the IPv4 length and its pooled buffer from
// Len before it marshals — and the Decoder is chunking-invariant: the
// same byte stream fed whole or split at any point yields the identical
// frame sequence and resync count, which is what lets TCP segment
// boundaries land anywhere.
func FuzzRPCFrameCodec(f *testing.F) {
	f.Add(Frame{Op: OpPut, ID: 42, Key: []byte("key"), Val: []byte("value")}.Marshal(nil), 3)
	f.Add(Frame{Op: OpResp, Status: StatusMiss, ID: 7}.Marshal(nil), 9)
	resp := Frame{Op: OpResp, Status: StatusOK, ID: 1, Val: bytes.Repeat([]byte("v"), 64)}.Marshal(nil)
	f.Add(append([]byte("garbage"), append(resp, resp[:10]...)...), 12)
	f.Add([]byte{Magic}, 0)
	f.Add([]byte{}, 1)
	f.Add(bytes.Repeat([]byte{0xab}, MaxValLen+10), MaxKeyLen+45) // key and value both past their fields

	f.Fuzz(func(t *testing.T, b []byte, split int) {
		cut := 0
		if len(b) > 0 {
			cut = ((split % len(b)) + len(b)) % len(b)
		}

		raw := Frame{Op: OpPut, ID: uint64(split), Key: b[:cut], Val: b}
		wire := raw.Marshal(nil)
		if len(wire) != raw.Len() {
			t.Fatalf("Marshal wrote %d bytes, Len says %d (key %d, value %d)", len(wire), raw.Len(), len(raw.Key), len(raw.Val))
		}
		if back, rest, err := Parse(wire); err != nil || len(rest) != 0 ||
			!bytes.HasPrefix(raw.Key, back.Key) || !bytes.HasPrefix(raw.Val, back.Val) {
			t.Fatalf("clipped frame does not parse back: %v, %d bytes left", err, len(rest))
		}

		if fr, rest, err := Parse(b); err == nil {
			if consumed := len(b) - len(rest); consumed != fr.Len() {
				t.Fatalf("Parse consumed %d bytes for a %d-byte frame", consumed, fr.Len())
			}
			again, rest2, err2 := Parse(fr.Marshal(nil))
			if err2 != nil || len(rest2) != 0 {
				t.Fatalf("re-parse of marshaled frame failed: %v (%v)", err2, fr)
			}
			if again.Op != fr.Op || again.Status != fr.Status || again.ID != fr.ID ||
				!bytes.Equal(again.Key, fr.Key) || !bytes.Equal(again.Val, fr.Val) {
				t.Fatalf("round trip diverged: %+v vs %+v", fr, again)
			}
		}

		// Chunking invariance: whole-feed vs split-feed must decode the
		// same frames with the same resync count.
		var whole, parts Decoder
		got := whole.Feed(b)
		got2 := parts.Feed(b[:cut])
		got2 = append(got2, parts.Feed(b[cut:])...)
		if len(got) != len(got2) || whole.Bad != parts.Bad || whole.Buffered() != parts.Buffered() {
			t.Fatalf("chunking changed decoding: %d/%d frames, %d/%d bad, %d/%d buffered",
				len(got), len(got2), whole.Bad, parts.Bad, whole.Buffered(), parts.Buffered())
		}
		for i := range got {
			a, b := got[i], got2[i]
			if a.Op != b.Op || a.Status != b.Status || a.ID != b.ID ||
				!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Val, b.Val) {
				t.Fatalf("frame %d differs across chunkings: %+v vs %+v", i, a, b)
			}
		}
	})
}
