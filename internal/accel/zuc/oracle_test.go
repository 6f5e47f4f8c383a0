package zuc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refState is the generator as this package first wrote it, straight off
// the specification: the LFSR shifts by a copy per step, the feedback is
// the chain of mod-(2^31-1) additions, and the keystream is materialised
// as a word slice. It stays here as the oracle the kernel, eea3 and EIA3
// are checked against.
type refState struct {
	lfsr   [16]uint32
	r1, r2 uint32
	x      [4]uint32
}

func refAdd31(a, b uint32) uint32 {
	c := a + b
	return (c & mod31) + (c >> 31)
}

func refRot31(x uint32, k uint) uint32 {
	return ((x << k) | (x >> (31 - k))) & mod31
}

func newRef(key, iv [16]byte) *refState {
	z := refInitRounds(key, iv)
	z.bitReorg()
	z.f()
	z.lfsrNext(0)
	return z
}

// refInitRounds loads the key and IV and runs the 32 initialization
// rounds, stopping before the discarded work round.
func refInitRounds(key, iv [16]byte) *refState {
	z := &refState{}
	for i := 0; i < 16; i++ {
		z.lfsr[i] = uint32(key[i])<<23 | d[i]<<8 | uint32(iv[i])
	}
	for i := 0; i < 32; i++ {
		z.bitReorg()
		w := z.f()
		z.lfsrNext(w >> 1)
	}
	return z
}

func (z *refState) bitReorg() {
	l := &z.lfsr
	z.x[0] = (l[15]&0x7fff8000)<<1 | l[14]&0xffff
	z.x[1] = (l[11]&0xffff)<<16 | l[9]>>15
	z.x[2] = (l[7]&0xffff)<<16 | l[5]>>15
	z.x[3] = (l[2]&0xffff)<<16 | l[0]>>15
}

func (z *refState) f() uint32 {
	w := (z.x[0] ^ z.r1) + z.r2
	w1 := z.r1 + z.x[1]
	w2 := z.r2 ^ z.x[2]
	z.r1 = sbox(l1(w1<<16 | w2>>16))
	z.r2 = sbox(l2(w2<<16 | w1>>16))
	return w
}

func (z *refState) lfsrNext(u uint32) {
	l := &z.lfsr
	v := refRot31(l[0], 8)
	v = refAdd31(v, l[0])
	v = refAdd31(v, refRot31(l[4], 20))
	v = refAdd31(v, refRot31(l[10], 21))
	v = refAdd31(v, refRot31(l[13], 17))
	v = refAdd31(v, refRot31(l[15], 15))
	v = refAdd31(v, u)
	if v == 0 {
		v = mod31
	}
	copy(l[:15], l[1:])
	l[15] = v
}

func (z *refState) keystream(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		z.bitReorg()
		out[i] = z.f() ^ z.x[3]
		z.lfsrNext(0)
	}
	return out
}

// refEEA3 XORs the word-slice keystream into a copy of the data a byte at
// a time.
func refEEA3(ck [16]byte, count uint32, bearer, direction uint8, data []byte, lengthBits int) []byte {
	ks := newRef(ck, eeaIV(count, bearer, direction)).keystream((lengthBits + 31) / 32)
	out := make([]byte, (lengthBits+7)/8)
	copy(out, data[:min(len(data), len(out))])
	for i := range out {
		out[i] ^= byte(ks[i/4] >> (24 - 8*(i%4)))
	}
	if r := lengthBits % 8; r != 0 {
		out[len(out)-1] &= byte(0xff << (8 - r))
	}
	return out
}

// refEIA3 is 128-EIA3 as this package first wrote it: the keystream
// materialised as a word slice, and one 32-bit window per message bit.
func refEIA3(ik [16]byte, count uint32, bearer, direction uint8, msg []byte, lengthBits int) uint32 {
	n := (lengthBits+31)/32 + 2
	ks := newRef(ik, eiaIV(count, bearer, direction)).keystream(n)
	getWord := func(i int) uint32 {
		// 32 keystream bits starting at bit offset i.
		w := ks[i/32]
		if r := uint(i % 32); r != 0 {
			w = w<<r | ks[i/32+1]>>(32-r)
		}
		return w
	}
	var t uint32
	for i := 0; i < lengthBits; i++ {
		if i/8 < len(msg) && msg[i/8]&(1<<(7-uint(i%8))) != 0 {
			t ^= getWord(i)
		}
	}
	t ^= getWord(lengthBits)
	return t ^ ks[n-1]
}

// keystream runs the kernel over zero blocks for n keystream words.
func keystream(key, iv [16]byte, n int) []uint32 {
	var z state
	z.init(key, iv)
	out := make([]uint32, 0, n+15)
	var b [64]byte
	for len(out) < n {
		z.block(&b, &[64]byte{}, 0)
		for i := 0; i < 64; i += 4 {
			out = append(out, binary.BigEndian.Uint32(b[i:]))
		}
	}
	return out[:n]
}

// TestInitMatchesReference checks the state init leaves, the register in
// place, against the reference's after its 32 rounds that absorb W >> 1
// and its discarded work round.
func TestInitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		var key, iv [16]byte
		rng.Read(key[:])
		rng.Read(iv[:])
		var z state
		z.init(key, iv)
		// The reference's bit-reorganization scratch x is not state.
		got, want, pre := refState{lfsr: z.lfsr, r1: z.r1, r2: z.r2}, *newRef(key, iv), *refInitRounds(key, iv)
		want.x, pre.x = got.x, got.x
		if got != want {
			if got == pre {
				t.Fatalf("trial %d: state after initialization is the reference's before its work round: the discarded work round did not run", trial)
			}
			t.Fatalf("trial %d: state after initialization differs from the reference:\n got %08x r1 %08x r2 %08x\nwant %08x r1 %08x r2 %08x",
				trial, got.lfsr, got.r1, got.r2, want.lfsr, want.r1, want.r2)
		}
	}
}

func TestKeystreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var key, iv [16]byte
		rng.Read(key[:])
		rng.Read(iv[:])
		if trial == 0 {
			key, iv = [16]byte{}, [16]byte{}
		}
		got := keystream(key, iv, 300)
		want := newRef(key, iv).keystream(300)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: word %d = %08x, reference %08x", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEEA3MatchesReference checks the streaming cipher against the
// word-slice one for every bit length up to 130 (every ragged tail and
// every bit mask), for random lengths up to 4 KiB that are mostly not
// multiples of 8 or 32, and for data shorter than the bit length claims.
func TestEEA3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 4096)
	rng.Read(data)
	ck := [16]byte{0x17, 0x3d, 0x14, 0xba, 0x50, 0x03, 0x73, 0x1d}
	check := func(data []byte, bits int) {
		t.Helper()
		if err := eea3AgainstReference(ck, uint32(bits), 5, 1, data, bits); err != "" {
			t.Fatal(err)
		}
	}
	for bits := 0; bits <= 130; bits++ {
		check(data[:(bits+7)/8], bits)
	}
	for i := 0; i < 200; i++ {
		bits := rng.Intn(4096*8 + 1)
		check(data[:(bits+7)/8], bits)
	}
	check(data, 4096*8)
	check(data[:5], 130)
	check(nil, 77)
}

// eea3AgainstReference runs EEA3 and refEEA3 on the same input and
// names the first byte that differs by the kernel block and round that
// produced it; it returns "" when the two agree.
func eea3AgainstReference(ck [16]byte, count uint32, bearer, direction uint8, data []byte, bits int) string {
	got := EEA3(ck, count, bearer, direction, data, bits)
	want := refEEA3(ck, count, bearer, direction, data, bits)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("%d bits over %d bytes: first difference at byte %d, keystream word %d of block %d:\n got %x\nwant %x",
				bits, len(data), i, i%64/4, i/64, got[i:min(i+16, len(got))], want[i:min(i+16, len(want))])
		}
	}
	return ""
}

// FuzzEEA3MatchesReference checks EEA3 against refEEA3 for any key, IV
// fields, data and bit length, including data shorter than the bit length
// claims (its bytes past the end read as zero).
func FuzzEEA3MatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, key []byte, count uint32, bearer, direction uint8, data []byte, bits int) {
		var ck [16]byte
		copy(ck[:], key)
		if bits < 0 {
			bits = -(bits + 1)
		}
		bits %= 8*len(data) + 129 // up to 128 bits past the data
		if err := eea3AgainstReference(ck, count, bearer&0x1f, direction&1, data, bits); err != "" {
			t.Fatal(err)
		}
	})
}

// TestEIA3MatchesReference checks the word-at-a-time MAC against the
// bit-serial one for every bit length up to 130 (every partial final word
// and both sides of a block of keystream), for random lengths up to 4 KiB,
// and for messages shorter than the bit length claims.
func TestEIA3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	msg := make([]byte, 4096)
	rng.Read(msg)
	ik := [16]byte{0x47, 0x05, 0x41, 0x25, 0x56, 0x1e, 0xb2, 0xdd}
	check := func(msg []byte, bits int) {
		t.Helper()
		got := EIA3(ik, uint32(bits), 3, 1, msg, bits)
		if want := refEIA3(ik, uint32(bits), 3, 1, msg, bits); got != want {
			t.Fatalf("MAC over %d bits of a %d-byte message = %08x, reference %08x", bits, len(msg), got, want)
		}
	}
	for bits := 0; bits <= 130; bits++ {
		check(msg[:(bits+7)/8], bits)
	}
	for i := 0; i < 200; i++ {
		bits := rng.Intn(4096*8 + 1)
		check(msg[:(bits+7)/8], bits)
	}
	check(msg, 4096*8)
	check(msg[:5], 130)
	check(nil, 77)
	check(msg[:64], 64*8+64)
}

func TestEIA3ZeroAlloc(t *testing.T) {
	var ik [16]byte
	msg := make([]byte, 4096)
	if avg := testing.AllocsPerRun(50, func() { EIA3(ik, 1, 0, 0, msg, len(msg)*8) }); avg != 0 {
		t.Fatalf("EIA3: %.1f allocations per call, want 0", avg)
	}
}

// TestAFUComputeZeroAlloc: one lane's cipher work, a 4 KiB encrypt and an
// auth into a caller-owned response, keeps its generator state on the
// stack and allocates nothing.
func TestAFUComputeZeroAlloc(t *testing.T) {
	payload := make([]byte, 4096)
	dst := make([]byte, 4096)
	for _, op := range []uint8{OpEncrypt, OpAuth} {
		req := Request{Op: op, Key: [16]byte{9}, Count: 3, Bearer: 2, BitLen: len(payload) * 8, Payload: payload}
		if avg := testing.AllocsPerRun(50, func() { compute(dst[:(resultBits(req)+7)/8], req) }); avg != 0 {
			t.Fatalf("compute (op %d): %.1f allocations per call, want 0", op, avg)
		}
	}
}

func TestEEA3AllocatesOnlyItsResult(t *testing.T) {
	var ck [16]byte
	data := make([]byte, 4096)
	if avg := testing.AllocsPerRun(50, func() { EEA3(ck, 1, 0, 0, data, len(data)*8) }); avg != 1 {
		t.Fatalf("EEA3: %.1f allocations per call, want 1 (the result)", avg)
	}
}

func BenchmarkEEA3Encrypt4K(b *testing.B) {
	var ck [16]byte
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EEA3(ck, uint32(i), 0, 0, data, len(data)*8)
	}
}
