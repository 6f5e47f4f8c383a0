package zuc

import (
	"bytes"
	"math/rand"
	"testing"
)

// refState is the generator as this package first wrote it, straight off
// the specification: the LFSR shifts by a copy per step, the feedback is
// the chain of mod-(2^31-1) additions, and the keystream is materialised
// as a word slice. It stays here as the oracle the streaming State and
// eea3 are checked against.
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
	z := &refState{}
	for i := 0; i < 16; i++ {
		z.lfsr[i] = uint32(key[i])<<23 | d[i]<<8 | uint32(iv[i])
	}
	for i := 0; i < 32; i++ {
		z.bitReorg()
		w := z.f()
		z.lfsrNext(w >> 1)
	}
	z.bitReorg()
	z.f()
	z.lfsrNext(0)
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

func TestKeystreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var key, iv [16]byte
		rng.Read(key[:])
		rng.Read(iv[:])
		if trial == 0 {
			key, iv = [16]byte{}, [16]byte{}
		}
		got := New(key, iv).Keystream(300)
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
		got := EEA3(ck, uint32(bits), 5, 1, data, bits)
		if want := refEEA3(ck, uint32(bits), 5, 1, data, bits); !bytes.Equal(got, want) {
			t.Fatalf("%d bits over %d bytes:\n got %x\nwant %x", bits, len(data), got, want)
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
