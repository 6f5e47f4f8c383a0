package rpc

import (
	"bytes"
	"testing"
)

// TestDecoderFeed pins what the chunking-invariance fuzz property cannot
// see: who owns the bytes and what a Feed costs. A returned frame owns
// one backing array (key, then value, the key capped so an append to it
// cannot reach the value) that neither the caller's input nor the
// decoder's reused buffer aliases, and the unread tail moves once per
// Feed — a 64 KiB garbage burst is skipped by a cursor, where
// compacting per skipped byte made it ~2 GB of memmove.
func TestDecoderFeed(t *testing.T) {
	one := Frame{Op: OpPut, ID: 1, Key: []byte("key"), Val: []byte("value")}.Marshal(nil)
	two := Frame{Op: OpResp, ID: 2, Val: []byte("second")}.Marshal(nil)
	stream := append(bytes.Repeat([]byte{0x00}, 64<<10), one...)
	stream = append(stream, two...)
	stream = append(stream, one[:HeaderLen+1]...) // a frame cut mid-key stays buffered

	var d Decoder
	got := d.Feed(stream)
	if len(got) != 2 || d.Bad != 64<<10 || d.Buffered() != HeaderLen+1 {
		t.Fatalf("%d frames, %d bytes skipped, %d buffered; want 2, %d, %d", len(got), d.Bad, d.Buffered(), 64<<10, HeaderLen+1)
	}
	for i := range stream {
		stream[i] = 0xee
	}
	d.Feed(bytes.Repeat([]byte{0xee}, 8)) // overwrites the reused buffer's head
	f := got[0]
	if string(f.Key) != "key" || string(f.Val) != "value" || got[1].ID != 2 || string(got[1].Val) != "second" {
		t.Fatalf("frames alias a buffer that moved on: %+v %+v", f, got[1])
	}
	if cap(f.Key) != len(f.Key) {
		t.Errorf("key has cap %d for len %d: an append to it would overwrite the value", cap(f.Key), len(f.Key))
	}
	if _ = append(f.Key, 'X'); string(f.Val) != "value" {
		t.Errorf("append to the key reached the value: %q", f.Val)
	}

	// One allocation per frame (its backing array) plus the result slice.
	var e Decoder
	e.Feed(one) // warm: the decoder's own buffer
	if avg := testing.AllocsPerRun(100, func() { e.Feed(one) }); avg != 2 {
		t.Errorf("Feed of one frame: %.1f allocations, want 2 (frame bytes + result slice)", avg)
	}
}
