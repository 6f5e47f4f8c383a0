// Package zuc implements the ZUC stream cipher and the LTE security
// algorithms 128-EEA3 (confidentiality) and 128-EIA3 (integrity) from
// ETSI/SAGE specification v1.6, plus the paper's disaggregated 8-lane ZUC
// accelerator (§7) and its cryptodev-style client driver.
//
// The cipher is implemented for real and validated against the official
// test vectors; only the accelerator lanes' throughput is a calibrated
// model (8 lanes at ~4.76 Gbps each for 512 B messages, as published).
package zuc

import (
	"encoding/binary"
	"math/bits"
)

// s0 and s1 are the ZUC S-boxes.
var s0 = [256]byte{
	0x3e, 0x72, 0x5b, 0x47, 0xca, 0xe0, 0x00, 0x33, 0x04, 0xd1, 0x54, 0x98, 0x09, 0xb9, 0x6d, 0xcb,
	0x7b, 0x1b, 0xf9, 0x32, 0xaf, 0x9d, 0x6a, 0xa5, 0xb8, 0x2d, 0xfc, 0x1d, 0x08, 0x53, 0x03, 0x90,
	0x4d, 0x4e, 0x84, 0x99, 0xe4, 0xce, 0xd9, 0x91, 0xdd, 0xb6, 0x85, 0x48, 0x8b, 0x29, 0x6e, 0xac,
	0xcd, 0xc1, 0xf8, 0x1e, 0x73, 0x43, 0x69, 0xc6, 0xb5, 0xbd, 0xfd, 0x39, 0x63, 0x20, 0xd4, 0x38,
	0x76, 0x7d, 0xb2, 0xa7, 0xcf, 0xed, 0x57, 0xc5, 0xf3, 0x2c, 0xbb, 0x14, 0x21, 0x06, 0x55, 0x9b,
	0xe3, 0xef, 0x5e, 0x31, 0x4f, 0x7f, 0x5a, 0xa4, 0x0d, 0x82, 0x51, 0x49, 0x5f, 0xba, 0x58, 0x1c,
	0x4a, 0x16, 0xd5, 0x17, 0xa8, 0x92, 0x24, 0x1f, 0x8c, 0xff, 0xd8, 0xae, 0x2e, 0x01, 0xd3, 0xad,
	0x3b, 0x4b, 0xda, 0x46, 0xeb, 0xc9, 0xde, 0x9a, 0x8f, 0x87, 0xd7, 0x3a, 0x80, 0x6f, 0x2f, 0xc8,
	0xb1, 0xb4, 0x37, 0xf7, 0x0a, 0x22, 0x13, 0x28, 0x7c, 0xcc, 0x3c, 0x89, 0xc7, 0xc3, 0x96, 0x56,
	0x07, 0xbf, 0x7e, 0xf0, 0x0b, 0x2b, 0x97, 0x52, 0x35, 0x41, 0x79, 0x61, 0xa6, 0x4c, 0x10, 0xfe,
	0xbc, 0x26, 0x95, 0x88, 0x8a, 0xb0, 0xa3, 0xfb, 0xc0, 0x18, 0x94, 0xf2, 0xe1, 0xe5, 0xe9, 0x5d,
	0xd0, 0xdc, 0x11, 0x66, 0x64, 0x5c, 0xec, 0x59, 0x42, 0x75, 0x12, 0xf5, 0x74, 0x9c, 0xaa, 0x23,
	0x0e, 0x86, 0xab, 0xbe, 0x2a, 0x02, 0xe7, 0x67, 0xe6, 0x44, 0xa2, 0x6c, 0xc2, 0x93, 0x9f, 0xf1,
	0xf6, 0xfa, 0x36, 0xd2, 0x50, 0x68, 0x9e, 0x62, 0x71, 0x15, 0x3d, 0xd6, 0x40, 0xc4, 0xe2, 0x0f,
	0x8e, 0x83, 0x77, 0x6b, 0x25, 0x05, 0x3f, 0x0c, 0x30, 0xea, 0x70, 0xb7, 0xa1, 0xe8, 0xa9, 0x65,
	0x8d, 0x27, 0x1a, 0xdb, 0x81, 0xb3, 0xa0, 0xf4, 0x45, 0x7a, 0x19, 0xdf, 0xee, 0x78, 0x34, 0x60,
}

var s1 = [256]byte{
	0x55, 0xc2, 0x63, 0x71, 0x3b, 0xc8, 0x47, 0x86, 0x9f, 0x3c, 0xda, 0x5b, 0x29, 0xaa, 0xfd, 0x77,
	0x8c, 0xc5, 0x94, 0x0c, 0xa6, 0x1a, 0x13, 0x00, 0xe3, 0xa8, 0x16, 0x72, 0x40, 0xf9, 0xf8, 0x42,
	0x44, 0x26, 0x68, 0x96, 0x81, 0xd9, 0x45, 0x3e, 0x10, 0x76, 0xc6, 0xa7, 0x8b, 0x39, 0x43, 0xe1,
	0x3a, 0xb5, 0x56, 0x2a, 0xc0, 0x6d, 0xb3, 0x05, 0x22, 0x66, 0xbf, 0xdc, 0x0b, 0xfa, 0x62, 0x48,
	0xdd, 0x20, 0x11, 0x06, 0x36, 0xc9, 0xc1, 0xcf, 0xf6, 0x27, 0x52, 0xbb, 0x69, 0xf5, 0xd4, 0x87,
	0x7f, 0x84, 0x4c, 0xd2, 0x9c, 0x57, 0xa4, 0xbc, 0x4f, 0x9a, 0xdf, 0xfe, 0xd6, 0x8d, 0x7a, 0xeb,
	0x2b, 0x53, 0xd8, 0x5c, 0xa1, 0x14, 0x17, 0xfb, 0x23, 0xd5, 0x7d, 0x30, 0x67, 0x73, 0x08, 0x09,
	0xee, 0xb7, 0x70, 0x3f, 0x61, 0xb2, 0x19, 0x8e, 0x4e, 0xe5, 0x4b, 0x93, 0x8f, 0x5d, 0xdb, 0xa9,
	0xad, 0xf1, 0xae, 0x2e, 0xcb, 0x0d, 0xfc, 0xf4, 0x2d, 0x46, 0x6e, 0x1d, 0x97, 0xe8, 0xd1, 0xe9,
	0x4d, 0x37, 0xa5, 0x75, 0x5e, 0x83, 0x9e, 0xab, 0x82, 0x9d, 0xb9, 0x1c, 0xe0, 0xcd, 0x49, 0x89,
	0x01, 0xb6, 0xbd, 0x58, 0x24, 0xa2, 0x5f, 0x38, 0x78, 0x99, 0x15, 0x90, 0x50, 0xb8, 0x95, 0xe4,
	0xd0, 0x91, 0xc7, 0xce, 0xed, 0x0f, 0xb4, 0x6f, 0xa0, 0xcc, 0xf0, 0x02, 0x4a, 0x79, 0xc3, 0xde,
	0xa3, 0xef, 0xea, 0x51, 0xe6, 0x6b, 0x18, 0xec, 0x1b, 0x2c, 0x80, 0xf7, 0x74, 0xe7, 0xff, 0x21,
	0x5a, 0x6a, 0x54, 0x1e, 0x41, 0x31, 0x92, 0x35, 0xc4, 0x33, 0x07, 0x0a, 0xba, 0x7e, 0x0e, 0x34,
	0x88, 0xb1, 0x98, 0x7c, 0xf3, 0x3d, 0x60, 0x6c, 0x7b, 0xca, 0xd3, 0x1f, 0x32, 0x65, 0x04, 0x28,
	0x64, 0xbe, 0x85, 0x9b, 0x2f, 0x59, 0x8a, 0xd7, 0xb0, 0x25, 0xac, 0xaf, 0x12, 0x03, 0xe2, 0xf2,
}

// d holds the 15-bit key-loading constants.
var d = [16]uint32{
	0x44D7, 0x26BC, 0x626B, 0x135E, 0x5789, 0x35E2, 0x7135, 0x09AF,
	0x4D78, 0x2F13, 0x6BC4, 0x1AF1, 0x5E26, 0x3C4D, 0x789A, 0x47AC,
}

// state is a ZUC keystream generator: the 16-cell LFSR, s0 at index 0,
// and the FSM's two registers.
type state struct {
	lfsr   [16]uint32
	r1, r2 uint32
}

const mod31 = (1 << 31) - 1

// init loads a 128-bit key and IV. The 32 initialization rounds are two
// blocks whose mask feeds F's output back into the LFSR; the one
// work-mode round that follows, its output discarded, shifts the
// register by a cell.
func (z *state) init(key, iv [16]byte) {
	for i := 0; i < 16; i++ {
		z.lfsr[i] = uint32(key[i])<<23 | d[i]<<8 | uint32(iv[i])
	}
	var b [64]byte
	z.block(&b, &b, ^uint32(0))
	z.block(&b, &b, ^uint32(0))
	l := &z.lfsr
	w, r1, r2 := fsm(z.r1, z.r2, l[15], l[14], l[11], l[9], l[7], l[5])
	s16 := step(&b, &b, 0, w, 0, l[0], l[2], l[4], l[10], l[13], l[15])
	copy(l[:15], l[1:])
	l[15], z.r1, z.r2 = s16, r1, r2
}

func sbox(x uint32) uint32 {
	return uint32(s0[x>>24])<<24 | uint32(s1[x>>16&0xff])<<16 |
		uint32(s0[x>>8&0xff])<<8 | uint32(s1[x&0xff])
}

func l1(x uint32) uint32 {
	return x ^ bits.RotateLeft32(x, 2) ^ bits.RotateLeft32(x, 10) ^ bits.RotateLeft32(x, 18) ^ bits.RotateLeft32(x, 24)
}

func l2(x uint32) uint32 {
	return x ^ bits.RotateLeft32(x, 8) ^ bits.RotateLeft32(x, 14) ^ bits.RotateLeft32(x, 22) ^ bits.RotateLeft32(x, 30)
}

// fsm runs the nonlinear function F on the bit reorganization of cells
// c15, c14, c11, c9, c7 and c5: it returns W and the next R1 and R2.
func fsm(r1, r2, c15, c14, c11, c9, c7, c5 uint32) (w, n1, n2 uint32) {
	w1 := r1 + (c11<<16 | c9>>15)
	w2 := r2 ^ (c7<<16 | c5>>15)
	w = (((c15&0x7fff8000)<<1 | c14&0xffff) ^ r1) + r2
	return w, sbox(l1(w1<<16 | w2>>16)), sbox(l2(w2<<16 | w1>>16))
}

// step writes keystream word i, W ^ X3 (X3 from cells c2 and c0), XORed
// with src's into dst as big-endian bytes, and returns the LFSR's next
// cell: s16 = 2^15 s15 + 2^17 s13 + 2^21 s10 + 2^20 s4 + (1 + 2^8) s0 +
// (W >> 1 under the mask) mod 2^31-1. Two folds of the high bits onto the
// low 31 take the uint64 sum, never zero as no cell is, to 1..2^31-1:
// zero reads 2^31-1, as the specification asks.
func step(dst, src *[64]byte, i int, w, m, c0, c2, c4, c10, c13, c15 uint32) uint32 {
	binary.BigEndian.PutUint32(dst[4*i:], binary.BigEndian.Uint32(src[4*i:])^w^(c2<<16|c0>>15))
	v := uint64(c0) + uint64(c0)<<8 + uint64(c4)<<20 + uint64(c10)<<21 +
		uint64(c13)<<17 + uint64(c15)<<15 + uint64(w>>1&m)
	v = v&mod31 + v>>31
	return uint32(v&mod31 + v>>31)
}

// block is the keystream kernel: 16 rounds unrolled, round i overwriting
// cell i, so the register ends in place. Each round writes keystream word
// i XORed with src's into dst (which may be src). A mask m of ^0 is the
// initialization mode: the LFSR step also absorbs W >> 1.
func (z *state) block(dst, src *[64]byte, m uint32) {
	l, r1, r2 := z.lfsr, z.r1, z.r2
	w, r1, r2 := fsm(r1, r2, l[15], l[14], l[11], l[9], l[7], l[5])
	l[0] = step(dst, src, 0, w, m, l[0], l[2], l[4], l[10], l[13], l[15])
	w, r1, r2 = fsm(r1, r2, l[0], l[15], l[12], l[10], l[8], l[6])
	l[1] = step(dst, src, 1, w, m, l[1], l[3], l[5], l[11], l[14], l[0])
	w, r1, r2 = fsm(r1, r2, l[1], l[0], l[13], l[11], l[9], l[7])
	l[2] = step(dst, src, 2, w, m, l[2], l[4], l[6], l[12], l[15], l[1])
	w, r1, r2 = fsm(r1, r2, l[2], l[1], l[14], l[12], l[10], l[8])
	l[3] = step(dst, src, 3, w, m, l[3], l[5], l[7], l[13], l[0], l[2])
	w, r1, r2 = fsm(r1, r2, l[3], l[2], l[15], l[13], l[11], l[9])
	l[4] = step(dst, src, 4, w, m, l[4], l[6], l[8], l[14], l[1], l[3])
	w, r1, r2 = fsm(r1, r2, l[4], l[3], l[0], l[14], l[12], l[10])
	l[5] = step(dst, src, 5, w, m, l[5], l[7], l[9], l[15], l[2], l[4])
	w, r1, r2 = fsm(r1, r2, l[5], l[4], l[1], l[15], l[13], l[11])
	l[6] = step(dst, src, 6, w, m, l[6], l[8], l[10], l[0], l[3], l[5])
	w, r1, r2 = fsm(r1, r2, l[6], l[5], l[2], l[0], l[14], l[12])
	l[7] = step(dst, src, 7, w, m, l[7], l[9], l[11], l[1], l[4], l[6])
	w, r1, r2 = fsm(r1, r2, l[7], l[6], l[3], l[1], l[15], l[13])
	l[8] = step(dst, src, 8, w, m, l[8], l[10], l[12], l[2], l[5], l[7])
	w, r1, r2 = fsm(r1, r2, l[8], l[7], l[4], l[2], l[0], l[14])
	l[9] = step(dst, src, 9, w, m, l[9], l[11], l[13], l[3], l[6], l[8])
	w, r1, r2 = fsm(r1, r2, l[9], l[8], l[5], l[3], l[1], l[15])
	l[10] = step(dst, src, 10, w, m, l[10], l[12], l[14], l[4], l[7], l[9])
	w, r1, r2 = fsm(r1, r2, l[10], l[9], l[6], l[4], l[2], l[0])
	l[11] = step(dst, src, 11, w, m, l[11], l[13], l[15], l[5], l[8], l[10])
	w, r1, r2 = fsm(r1, r2, l[11], l[10], l[7], l[5], l[3], l[1])
	l[12] = step(dst, src, 12, w, m, l[12], l[14], l[0], l[6], l[9], l[11])
	w, r1, r2 = fsm(r1, r2, l[12], l[11], l[8], l[6], l[4], l[2])
	l[13] = step(dst, src, 13, w, m, l[13], l[15], l[1], l[7], l[10], l[12])
	w, r1, r2 = fsm(r1, r2, l[13], l[12], l[9], l[7], l[5], l[3])
	l[14] = step(dst, src, 14, w, m, l[14], l[0], l[2], l[8], l[11], l[13])
	w, r1, r2 = fsm(r1, r2, l[14], l[13], l[10], l[8], l[6], l[4])
	l[15] = step(dst, src, 15, w, m, l[15], l[1], l[3], l[9], l[12], l[14])
	z.lfsr, z.r1, z.r2 = l, r1, r2
}

// eeaIV builds the 128-EEA3 initialization vector.
func eeaIV(count uint32, bearer, direction uint8) [16]byte {
	var iv [16]byte
	binary.BigEndian.PutUint32(iv[0:], count)
	iv[4] = bearer<<3 | direction<<2
	copy(iv[8:], iv[0:8])
	return iv
}

// EEA3 applies the 128-EEA3 confidentiality algorithm: it en/decrypts
// lengthBits of data and returns the result. Bits beyond lengthBits in
// the final byte are zeroed per the specification.
func EEA3(ck [16]byte, count uint32, bearer, direction uint8, data []byte, lengthBits int) []byte {
	out := make([]byte, (lengthBits+7)/8)
	eea3(out, ck, count, bearer, direction, data, lengthBits)
	return out
}

// eea3 is EEA3 into a caller-owned destination of (lengthBits+7)/8 bytes:
// the kernel XORs the input into dst a whole 64-byte block at a time, and
// the ragged tail through a zero-padded block, so no keystream is ever
// materialised. Input bytes that data is too short to supply read as zero.
func eea3(dst []byte, ck [16]byte, count uint32, bearer, direction uint8, data []byte, lengthBits int) {
	var z state
	z.init(ck, eeaIV(count, bearer, direction))
	i, src := 0, data[:min(len(data), len(dst))]
	for ; i+64 <= len(src); i += 64 {
		z.block((*[64]byte)(dst[i:]), (*[64]byte)(src[i:]), 0)
	}
	for ; i < len(dst); i += 64 {
		var b [64]byte
		copy(b[:], src[min(i, len(src)):])
		z.block(&b, &b, 0)
		copy(dst[i:], b[:])
	}
	// Zero tail bits beyond the bit length.
	if r := lengthBits % 8; r != 0 {
		dst[len(dst)-1] &= byte(0xff << (8 - r))
	}
}

// eiaIV builds the 128-EIA3 initialization vector.
func eiaIV(count uint32, bearer, direction uint8) [16]byte {
	iv := eeaIV(count, bearer, 0)
	iv[8] ^= direction << 7
	iv[14] = direction << 7
	return iv
}

// EIA3 computes the 128-EIA3 32-bit MAC over lengthBits of msg, a word of
// message at a time against a 64-bit window of keystream, both taken a
// 64-byte block at a time. Message bytes that msg is too short to supply
// read as zero.
func EIA3(ik [16]byte, count uint32, bearer, direction uint8, msg []byte, lengthBits int) uint32 {
	var z state
	z.init(ik, eiaIV(count, bearer, direction))
	var ks, mb, zero [64]byte
	z.block(&ks, &zero, 0)
	nw, hi, t := (lengthBits+31)/32, binary.BigEndian.Uint32(ks[:]), uint32(0)
	// Message word j, its bits past lengthBits masked off, meets the
	// window of keystream words j and j+1; the MAC's last term is nw+1.
	for j := 0; j <= nw; j++ {
		if j%16 == 0 {
			clear(mb[copy(mb[:], msg[min(4*j, len(msg)):]):])
		}
		if (j+1)%16 == 0 {
			z.block(&ks, &zero, 0)
		}
		lo := binary.BigEndian.Uint32(ks[(j+1)%16*4:])
		win := uint64(hi)<<32 | uint64(lo)
		m := binary.BigEndian.Uint32(mb[j%16*4:]) &^ (^uint32(0) >> max(0, min(32, lengthBits-32*j)))
		for ; m != 0; m &= m - 1 {
			t ^= uint32(win >> (1 + bits.TrailingZeros32(m)))
		}
		if j == lengthBits/32 {
			t ^= uint32(win >> (32 - lengthBits%32))
		}
		hi = lo
	}
	return t ^ hi
}
