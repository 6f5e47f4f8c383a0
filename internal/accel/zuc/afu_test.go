package zuc_test

import (
	"bytes"
	"testing"
	"unsafe"

	"flexdriver"
	"flexdriver/internal/accel/zuc"
)

// newZucTestbed builds the paper's §7 topology: a client host running the
// cryptodev driver, connected over 25 GbE to an Innova node running the
// 8-lane ZUC AFU behind FLD-R.
func newZucTestbed(t *testing.T) (*flexdriver.RemotePair, *zuc.AFU, *zuc.Cryptodev) {
	t.Helper()
	rp, afu, cd, _ := newZucTestbedEndpoint(t)
	return rp, afu, cd
}

// newZucTestbedEndpoint also returns the client's RDMA endpoint, for tests
// that hand the cryptodev a response of their own making.
func newZucTestbedEndpoint(t *testing.T) (*flexdriver.RemotePair, *zuc.AFU, *zuc.Cryptodev, *flexdriver.RDMAEndpoint) {
	t.Helper()
	rp := flexdriver.NewRemotePair()
	rsrv := flexdriver.NewRServer(rp.Server.RT)
	rsrv.Listen("zuc")
	rp.Server.RT.Start()

	afu := zuc.NewAFU(rp.Server.FLD, rp.Engine(), 8, zuc.DefaultLaneParams())
	afu.QueueFor = rsrv.QueueFor

	ep, err := flexdriver.ConnectRDMA(rp.Client.Drv, rsrv, "zuc",
		flexdriver.RDMAConfig{SendEntries: 128, RecvEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	cd := zuc.NewCryptodev(rp.Engine(), ep)
	return rp, afu, cd, ep
}

func TestDisaggregatedEncryptMatchesLocal(t *testing.T) {
	rp, afu, cd := newZucTestbed(t)

	key := [16]byte{0x17, 0x3d, 0x14, 0xba, 0x50, 0x03, 0x73, 0x1d,
		0x7a, 0x60, 0x04, 0x94, 0x70, 0xf0, 0x0a, 0x29}
	plain := make([]byte, 512)
	for i := range plain {
		plain[i] = byte(i * 31)
	}
	var done *zuc.Op
	var result []byte
	cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: 0x66035492, Bearer: 0xf,
		Data: plain, Done: func(o *zuc.Op) { done, result = o, bytes.Clone(o.Result) }}) // Result is borrowed
	rp.Run()

	if done == nil {
		t.Fatalf("op never completed (afu: %+v)", afu)
	}
	want := zuc.EEA3(key, 0x66035492, 0xf, 0, plain, len(plain)*8)
	if !bytes.Equal(result, want) {
		t.Fatal("remote ciphertext differs from local EEA3")
	}
	if done.DoneAt <= done.SubmittedAt {
		t.Fatal("no latency recorded")
	}
}

func TestDisaggregatedEncryptDecryptRoundTrip(t *testing.T) {
	rp, _, cd := newZucTestbed(t)
	key := [16]byte{9, 9, 9}
	plain := []byte("the quick brown fox jumps over the lazy accelerator")

	var final []byte
	cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: 1, Data: plain,
		Done: func(enc *zuc.Op) {
			cd.Enqueue(&zuc.Op{Op: zuc.OpDecrypt, Key: key, Count: 1, Data: enc.Result,
				Done: func(dec *zuc.Op) { final = bytes.Clone(dec.Result) }})
		}})
	rp.Run()

	if !bytes.Equal(final, plain) {
		t.Fatalf("round trip failed: %q", final)
	}
}

func TestDisaggregatedAuth(t *testing.T) {
	rp, _, cd := newZucTestbed(t)
	key := [16]byte{1, 2, 3, 4}
	msg := []byte("authenticate me")
	var mac uint32
	cd.Enqueue(&zuc.Op{Op: zuc.OpAuth, Key: key, Count: 5, Bearer: 3, Direction: 1,
		Data: msg, Done: func(o *zuc.Op) { mac = o.MAC }})
	rp.Run()
	if want := zuc.EIA3(key, 5, 3, 1, msg, len(msg)*8); mac != want {
		t.Fatalf("remote MAC %08x, want %08x", mac, want)
	}
}

func TestManyOpsPipelined(t *testing.T) {
	rp, afu, cd := newZucTestbed(t)
	key := [16]byte{42}
	const n = 64
	completed := 0
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 256)
		cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: uint32(i), Data: data,
			Done: func(o *zuc.Op) { completed++ }})
	}
	rp.Run()
	if completed != n {
		t.Fatalf("completed %d/%d (afu requests=%d responses=%d bad=%d dropped=%d)",
			completed, n, afu.Requests, afu.Responses, afu.Bad, afu.Dropped)
	}
}

func TestSoftCryptodevBaseline(t *testing.T) {
	eng := flexdriver.NewEngine()
	sc := zuc.NewSoftCryptodev(eng)
	key := [16]byte{7}
	data := make([]byte, 1024)
	var got []byte
	sc.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: 3, Data: data,
		Done: func(o *zuc.Op) { got = o.Result }})
	eng.Run()
	if want := zuc.EEA3(key, 3, 0, 0, data, 8192); !bytes.Equal(got, want) {
		t.Fatal("software baseline result mismatch")
	}
	// 1024 B at 80 ns + 1.636 ns/B: about 1.8 us of CPU time.
	if eng.Now() < flexdriver.Microsecond || eng.Now() > 4*flexdriver.Microsecond {
		t.Fatalf("unexpected software cipher time %v", eng.Now())
	}
}

func TestRequestCodecRejectsGarbage(t *testing.T) {
	if _, err := zuc.ParseRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	bad := zuc.Request{Op: zuc.OpEncrypt, BitLen: 9999, Payload: []byte{1}}.Marshal(nil)
	if _, err := zuc.ParseRequest(bad); err == nil {
		t.Fatal("oversized bit length accepted")
	}
	junk := make([]byte, zuc.HeaderBytes)
	if _, err := zuc.ParseRequest(junk); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestCryptodevDropsMalformedResponses: a response the client cannot use
// — too short for its opcode's result, truncated, wrong magic — is
// dropped and counted; it neither completes an op nor panics the library.
func TestCryptodevDropsMalformedResponses(t *testing.T) {
	_, _, cd, ep := newZucTestbedEndpoint(t)
	completed := 0
	var mac uint32
	cd.Enqueue(&zuc.Op{Op: zuc.OpAuth, Data: []byte("msg"), Done: func(o *zuc.Op) { completed++; mac = o.MAC }})
	// The op above has ID 1; the simulation never runs, so every response
	// it sees is one of these.
	authResp := func(payload []byte) []byte {
		return zuc.Request{Op: zuc.OpAuth | 0x80, ID: 1, Payload: payload}.Marshal(nil)
	}
	bad := []struct {
		name string
		msg  []byte
	}{
		{"auth response with no payload", authResp(nil)},
		{"auth response with a 3-byte payload", authResp([]byte{1, 2, 3})},
		{"truncated header", authResp([]byte{1, 2, 3, 4})[:zuc.HeaderBytes-1]},
		{"bad magic", append([]byte{'X', 'C'}, make([]byte, zuc.HeaderBytes+2)...)},
	}
	for i, c := range bad {
		ep.OnMessage(c.msg)
		if completed != 0 {
			t.Fatalf("%s: completed=%d, want the op untouched", c.name, completed)
		}
		if cd.BadResponses != int64(i+1) {
			t.Fatalf("%s: BadResponses=%d, want %d", c.name, cd.BadResponses, i+1)
		}
	}
	ep.OnMessage(authResp([]byte{0xde, 0xad, 0xbe, 0xef}))
	// The op was still in flight: the well-formed response completes it.
	if completed != 1 || mac != 0xdeadbeef || cd.BadResponses != int64(len(bad)) {
		t.Fatalf("well-formed response: completed=%d mac=%08x bad=%d", completed, mac, cd.BadResponses)
	}
}

// TestAFURequestsReturnToPool: the AFU copies each complete request into a
// buffer from the engine's BufPool, which its lane job owns; laneDone puts
// it back once the cipher has read it, and a request that does not parse
// goes back at once. A single-fragment request, a multi-fragment one and
// an unparsable one each leave the pool balanced at quiescence, with no
// buffer put back twice.
func TestAFURequestsReturnToPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int // payload bytes; the RoCE MTU is 1 KiB
		bad  bool
	}{
		{"single fragment", 512, false},
		{"multi fragment", 4096, false},
		{"unparsable", 512, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rp, afu, cd, ep := newZucTestbedEndpoint(t)
			completed := 0
			if tc.bad {
				ep.Send(make([]byte, zuc.HeaderBytes+tc.size)) // no request magic
			} else {
				cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: [16]byte{5}, Data: make([]byte, tc.size),
					Done: func(*zuc.Op) { completed++ }})
			}
			rp.Run()
			if tc.bad && afu.Bad != 1 || !tc.bad && (completed != 1 || afu.Requests != 1) {
				t.Fatalf("completed %d, afu requests %d, bad %d", completed, afu.Requests, afu.Bad)
			}
			bufs := rp.Engine().Bufs()
			if n := bufs.Outstanding(); n != 0 {
				t.Errorf("%d buffers outstanding at quiescence: a request message was not put back", n)
			}
			// Draining every class hands each pooled buffer out once; a
			// repeated address was put back twice.
			seen := map[*byte]bool{}
			var held [][]byte
			for size := 64; size <= 16384; size *= 2 {
				for range 64 {
					b := bufs.Get(size)
					if p := unsafe.SliceData(b); seen[p] {
						t.Errorf("buffer %p handed out twice: it was put back twice", p)
					} else {
						seen[p] = true
					}
					held = append(held, b)
				}
			}
			for _, b := range held {
				bufs.Put(b)
			}
		})
	}
}
