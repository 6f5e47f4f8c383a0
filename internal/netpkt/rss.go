package netpkt

import (
	"encoding/binary"
	"math/bits"
)

// DefaultToeplitzKey is the RSS hash key: the key from the Microsoft RSS
// verification suite, used by essentially every NIC vendor's
// documentation, so the hash can be checked against published vectors.
var DefaultToeplitzKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// toeplitzTab[i][b] is the hash of byte b at input offset i. The Toeplitz
// hash XORs, for every set input bit p (counted from the most significant
// bit of byte 0), the 32-bit key window that starts at key bit p, so it is
// linear over the input bytes. Key bits past the key's end read as zero: a
// byte at offset 40 or beyond adds nothing.
var toeplitzTab [len(DefaultToeplitzKey)][256]uint32

func init() {
	var key [len(DefaultToeplitzKey) + 8]byte
	copy(key[:], DefaultToeplitzKey[:])
	for i := range toeplitzTab {
		kw := binary.BigEndian.Uint64(key[i:]) // key bits 8i..8i+63
		for b := 1; b < 256; b++ {
			// Bit 1<<low of the byte is input bit 8i+7-low: its window
			// is kw shifted left by 7-low, top 32 bits.
			low := bits.TrailingZeros8(uint8(b))
			toeplitzTab[i][b] = toeplitzTab[i][b&(b-1)] ^ uint32(kw<<(7-low)>>32)
		}
	}
}

// Toeplitz computes the Toeplitz hash of input under DefaultToeplitzKey,
// as used for RSS queue selection (paper §2.1): one table load per input
// byte, where the bit-serial definition takes a data-dependent branch per
// input bit.
func Toeplitz(input []byte) uint32 {
	var hash uint32
	for i, b := range input {
		if i == len(toeplitzTab) {
			break
		}
		hash ^= toeplitzTab[i][b]
	}
	return hash
}

// FlowKey builds the 12-byte RSS input for an IPv4 + L4-port tuple
// (src addr, dst addr, src port, dst port).
func FlowKey(src, dst IP, srcPort, dstPort uint16) []byte {
	b := make([]byte, 0, 12)
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	b = binary.BigEndian.AppendUint16(b, srcPort)
	b = binary.BigEndian.AppendUint16(b, dstPort)
	return b
}

// RSSHash computes the RSS hash of an IPv4 frame's 4-tuple (falling back to
// the 2-tuple for non-TCP/UDP packets, and to zero for unparsable ones).
// Fragmented packets hash only the 2-tuple because the L4 header is absent
// from non-first fragments — this is precisely why IP fragmentation breaks
// RSS in the paper's defragmentation experiment (§8.2.2).
func RSSHash(frame []byte) uint32 {
	eh, ip, err := ParseEth(frame)
	if err != nil || eh.EtherType != EtherTypeIPv4 {
		return 0
	}
	h, payload, err := ParseIPv4(ip)
	if err != nil {
		return 0
	}
	if !h.IsFragment() {
		switch h.Proto {
		case ProtoTCP:
			if t, _, err := ParseTCP(payload); err == nil {
				return Toeplitz(FlowKey(h.Src, h.Dst, t.SrcPort, t.DstPort))
			}
		case ProtoUDP:
			if u, _, err := ParseUDP(payload); err == nil {
				return Toeplitz(FlowKey(h.Src, h.Dst, u.SrcPort, u.DstPort))
			}
		}
	}
	b := make([]byte, 0, 8)
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	return Toeplitz(b)
}
