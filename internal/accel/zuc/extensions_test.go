package zuc_test

import (
	"bytes"
	"testing"

	"flexdriver"
	"flexdriver/internal/accel/zuc"
)

func TestShortRequestRoundTrip(t *testing.T) {
	r := zuc.ShortRequest{Op: zuc.OpEncrypt, Bearer: 5, Direction: 1, KeySlot: 300,
		Count: 0xdead, ID: 42, BitLen: 24, Payload: []byte{1, 2, 3}}
	got, err := zuc.ParseShortRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != r.Op || got.Bearer != r.Bearer || got.Direction != r.Direction ||
		got.KeySlot != r.KeySlot || got.Count != r.Count || got.ID != r.ID ||
		got.BitLen != r.BitLen || !bytes.Equal(got.Payload, r.Payload) {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	entries := [][]byte{[]byte("one"), []byte("twotwo"), {}, []byte("4")}
	got, err := zuc.ParseBatch(zuc.MarshalBatch(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries = %d", len(got))
	}
	for i := range entries {
		if !bytes.Equal(got[i], entries[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if _, err := zuc.ParseBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage batch accepted")
	}
	trunc := zuc.MarshalBatch(entries)[:10]
	if _, err := zuc.ParseBatch(trunc); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

// TestKeyStorageEndToEnd: register a key once, then run compact requests
// that reference it — results match the full-header path bit for bit.
func TestKeyStorageEndToEnd(t *testing.T) {
	rp, afu, cd := newZucTestbed(t)
	key := [16]byte{0xAA, 0xBB, 1, 2, 3}
	cd.SetKey(7, key)
	plain := bytes.Repeat([]byte{0x5C}, 300)
	var got []byte
	cd.EnqueueShort(&zuc.Op{Op: zuc.OpEncrypt, Count: 99, Data: plain,
		Done: func(o *zuc.Op) { got = o.Result }}, 7)
	rp.Run()

	if afu.KeysStored != 1 {
		t.Fatalf("keys stored = %d", afu.KeysStored)
	}
	want := zuc.EEA3(key, 99, 0, 0, plain, len(plain)*8)
	if !bytes.Equal(got, want) {
		t.Fatal("stored-key result differs from direct EEA3")
	}
	if out := rp.Engine().Bufs().Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers outstanding at quiescence", out)
	}
}

func TestUnknownKeySlotRejected(t *testing.T) {
	rp, afu, cd := newZucTestbed(t)
	done := false
	cd.EnqueueShort(&zuc.Op{Op: zuc.OpEncrypt, Data: []byte{1},
		Done: func(*zuc.Op) { done = true }}, 999)
	rp.Run()
	if done {
		t.Fatal("request with unregistered key completed")
	}
	if afu.Bad == 0 {
		t.Fatal("bad-request counter not incremented")
	}
}

// TestBatchedRequestsEndToEnd: a batch of compact requests returns one
// batched response with every op completed correctly.
func TestBatchedRequestsEndToEnd(t *testing.T) {
	rp, _, cd := newZucTestbed(t)
	key := [16]byte{3, 1, 4, 1, 5}
	cd.SetKey(1, key)

	const n = 16
	ops := make([]*zuc.Op, n)
	results := make([][]byte, n)
	for i := range ops {
		i := i
		data := bytes.Repeat([]byte{byte(i + 1)}, 64)
		ops[i] = &zuc.Op{Op: zuc.OpEncrypt, Count: uint32(i), Data: data,
			Done: func(o *zuc.Op) { results[i] = o.Result }}
	}
	cd.EnqueueBatch(ops, 1)
	rp.Run()

	for i := range ops {
		want := zuc.EEA3(key, uint32(i), 0, 0, bytes.Repeat([]byte{byte(i + 1)}, 64), 64*8)
		if !bytes.Equal(results[i], want) {
			t.Fatalf("batched op %d wrong or missing", i)
		}
	}
	if cd.Inflight() != 0 {
		t.Fatalf("inflight = %d after batch completion", cd.Inflight())
	}
	// The AFU's pooled response buffers all went back once the batch left.
	if out := rp.Engine().Bufs().Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers outstanding after the batch", out)
	}
}

// TestBatchingImprovesSmallRequestThroughput is the §8.2.1 future-work
// claim made measurable: for 64 B requests, stored keys + batching beat
// the per-request full-header protocol.
func TestBatchingImprovesSmallRequestThroughput(t *testing.T) {
	const size = 64
	const total = 512
	// Measure the time of the LAST completion — after it, the engine
	// only drains idle transport timers.
	window := func(run func(rp *flexdriver.RemotePair, cd *zuc.Cryptodev, done func())) flexdriver.Time {
		rp, _, cd := newZucTestbed(t)
		n := 0
		var lastDone flexdriver.Time
		run(rp, cd, func() {
			n++
			lastDone = rp.Engine().Now()
		})
		rp.Run()
		if n != total {
			t.Fatalf("completed %d/%d", n, total)
		}
		return lastDone
	}

	key := [16]byte{9}
	plainTime := window(func(rp *flexdriver.RemotePair, cd *zuc.Cryptodev, done func()) {
		for i := 0; i < total; i++ {
			cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: uint32(i),
				Data: make([]byte, size), Done: func(*zuc.Op) { done() }})
		}
	})
	batchedTime := window(func(rp *flexdriver.RemotePair, cd *zuc.Cryptodev, done func()) {
		cd.SetKey(1, key)
		for i := 0; i < total; i += 16 {
			ops := make([]*zuc.Op, 16)
			for j := range ops {
				ops[j] = &zuc.Op{Op: zuc.OpEncrypt, Count: uint32(i + j),
					Data: make([]byte, size), Done: func(*zuc.Op) { done() }}
			}
			cd.EnqueueBatch(ops, 1)
		}
	})
	speedup := float64(plainTime) / float64(batchedTime)
	t.Logf("64 B requests: plain %v, batched+stored-key %v (%.2fx)", plainTime, batchedTime, speedup)
	if speedup < 1.3 {
		t.Fatalf("batching speedup only %.2fx", speedup)
	}
}
