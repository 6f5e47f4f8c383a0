// Package netpkt implements the wire formats the FlexDriver reproduction
// exchanges over its simulated network: Ethernet, IPv4 (including
// fragmentation), UDP, TCP, VXLAN and the RoCE base transport header, plus
// the Toeplitz hash used for receive-side scaling.
//
// Packets are real byte slices built and parsed by these codecs, so the
// accelerators (defragmentation, token authentication) operate on genuine
// protocol data rather than abstract records.
package netpkt

import (
	"encoding/binary"
	"fmt"
)

// Protocol numbers and EtherTypes used in the experiments.
const (
	EtherTypeIPv4 = 0x0800

	ProtoTCP = 6
	ProtoUDP = 17

	VXLANPort = 4789
	RoCEPort  = 4791

	EthHeaderLen   = 14
	IPv4HeaderLen  = 20
	UDPHeaderLen   = 8
	TCPHeaderLen   = 20
	VXLANHeaderLen = 8

	// EthWireOverhead is the per-frame physical overhead (preamble + SFD
	// + FCS + inter-frame gap) the paper's rate model charges (20 B).
	EthWireOverhead = 20
)

// MAC is a 6-byte Ethernet address.
type MAC [6]byte

// IP is a 4-byte IPv4 address.
type IP [4]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// MACFrom returns a deterministic MAC derived from an integer node ID.
func MACFrom(id int) MAC {
	var m MAC
	m[0] = 0x02 // locally administered
	binary.BigEndian.PutUint32(m[2:], uint32(id))
	return m
}

// IPFrom returns the address 10.x.y.z derived from an integer node ID.
func IPFrom(id int) IP {
	var ip IP
	ip[0] = 10
	ip[1] = byte(id >> 16)
	ip[2] = byte(id >> 8)
	ip[3] = byte(id)
	return ip
}

// Eth is a parsed Ethernet header.
type Eth struct {
	Dst, Src  MAC
	EtherType uint16
}

// Marshal appends the header to b.
func (h Eth) Marshal(b []byte) []byte {
	b = append(b, h.Dst[:]...)
	b = append(b, h.Src[:]...)
	return binary.BigEndian.AppendUint16(b, h.EtherType)
}

// ParseEth decodes an Ethernet header and returns it with the payload.
func ParseEth(b []byte) (Eth, []byte, error) {
	if len(b) < EthHeaderLen {
		return Eth{}, nil, fmt.Errorf("netpkt: ethernet frame too short (%d bytes)", len(b))
	}
	var h Eth
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return h, b[14:], nil
}

// IPv4 is a parsed IPv4 header (no options).
type IPv4 struct {
	TOS        uint8
	TotalLen   uint16
	ID         uint16
	DontFrag   bool
	MoreFrags  bool
	FragOffset uint16 // in bytes (multiple of 8)
	TTL        uint8
	Proto      uint8
	Src, Dst   IP
}

// Marshal appends the 20-byte header (with checksum) to b. TotalLen must
// already include the payload length.
func (h IPv4) Marshal(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, h.TOS)
	b = binary.BigEndian.AppendUint16(b, h.TotalLen)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	flagsFrag := h.FragOffset / 8
	if h.DontFrag {
		flagsFrag |= 0x4000
	}
	if h.MoreFrags {
		flagsFrag |= 0x2000
	}
	b = binary.BigEndian.AppendUint16(b, flagsFrag)
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, ttl, h.Proto, 0, 0) // checksum filled below
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	cs := Checksum(b[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[start+10:], cs)
	return b
}

// ParseIPv4 decodes an IPv4 header, verifies its checksum, and returns the
// header with its payload (trimmed to TotalLen).
func ParseIPv4(b []byte) (IPv4, []byte, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4{}, nil, fmt.Errorf("netpkt: IPv4 header too short (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return IPv4{}, nil, fmt.Errorf("netpkt: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return IPv4{}, nil, fmt.Errorf("netpkt: bad IHL %d", ihl)
	}
	if Checksum(b[:ihl]) != 0 {
		return IPv4{}, nil, fmt.Errorf("netpkt: IPv4 header checksum mismatch")
	}
	var h IPv4
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	ff := binary.BigEndian.Uint16(b[6:])
	h.DontFrag = ff&0x4000 != 0
	h.MoreFrags = ff&0x2000 != 0
	h.FragOffset = (ff & 0x1fff) * 8
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(b) {
		return IPv4{}, nil, fmt.Errorf("netpkt: IPv4 total length %d out of range", h.TotalLen)
	}
	return h, b[ihl:h.TotalLen], nil
}

// IsFragment reports whether the header describes an IP fragment.
func (h IPv4) IsFragment() bool { return h.MoreFrags || h.FragOffset != 0 }

// UDP is a parsed UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
}

// Marshal appends the 8-byte header to b (checksum 0 = disabled, as is
// legal for IPv4 and common for VXLAN).
func (h UDP) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint16(b, h.Length)
	return binary.BigEndian.AppendUint16(b, 0)
}

// BuildUDP assembles a whole Eth+IPv4+UDP frame around payload; eth's
// EtherType is set to IPv4.
func BuildUDP(eth Eth, src, dst IP, sport, dport uint16, payload []byte) []byte {
	eth.EtherType = EtherTypeIPv4
	udpLen := UDPHeaderLen + len(payload)
	b := eth.Marshal(make([]byte, 0, EthHeaderLen+IPv4HeaderLen+udpLen))
	b = IPv4{TotalLen: uint16(IPv4HeaderLen + udpLen), Proto: ProtoUDP, Src: src, Dst: dst}.Marshal(b)
	b = UDP{SrcPort: sport, DstPort: dport, Length: uint16(udpLen)}.Marshal(b)
	return append(b, payload...)
}

// ParseUDP decodes a UDP header and returns it with the payload.
func ParseUDP(b []byte) (UDP, []byte, error) {
	if len(b) < UDPHeaderLen {
		return UDP{}, nil, fmt.Errorf("netpkt: UDP header too short (%d bytes)", len(b))
	}
	var h UDP
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Length = binary.BigEndian.Uint16(b[4:])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return UDP{}, nil, fmt.Errorf("netpkt: UDP length %d out of range", h.Length)
	}
	return h, b[UDPHeaderLen:h.Length], nil
}

// TCP is a parsed TCP header (options ignored; the iperf-style experiments
// model flows at segment granularity).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPAck = 1 << 4
)

// Marshal appends a 20-byte TCP header to b.
func (h TCP) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint32(b, h.Seq)
	b = binary.BigEndian.AppendUint32(b, h.Ack)
	b = append(b, 5<<4, h.Flags)
	b = binary.BigEndian.AppendUint16(b, 0xffff) // window
	b = binary.BigEndian.AppendUint16(b, 0)      // checksum (offloaded)
	return binary.BigEndian.AppendUint16(b, 0)   // urgent
}

// ParseTCP decodes a TCP header and returns it with the payload.
func ParseTCP(b []byte) (TCP, []byte, error) {
	if len(b) < TCPHeaderLen {
		return TCP{}, nil, fmt.Errorf("netpkt: TCP header too short (%d bytes)", len(b))
	}
	var h TCP
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Ack = binary.BigEndian.Uint32(b[8:])
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return TCP{}, nil, fmt.Errorf("netpkt: bad TCP data offset %d", off)
	}
	h.Flags = b[13]
	return h, b[off:], nil
}

// VXLAN is a parsed VXLAN header.
type VXLAN struct {
	VNI uint32 // 24-bit virtual network identifier
}

// Marshal appends the 8-byte VXLAN header to b.
func (h VXLAN) Marshal(b []byte) []byte {
	b = append(b, 0x08, 0, 0, 0) // flags: I bit set
	return append(b, byte(h.VNI>>16), byte(h.VNI>>8), byte(h.VNI), 0)
}

// ParseVXLAN decodes a VXLAN header and returns it with the payload.
func ParseVXLAN(b []byte) (VXLAN, []byte, error) {
	if len(b) < VXLANHeaderLen {
		return VXLAN{}, nil, fmt.Errorf("netpkt: VXLAN header too short (%d bytes)", len(b))
	}
	if b[0]&0x08 == 0 {
		return VXLAN{}, nil, fmt.Errorf("netpkt: VXLAN I flag not set")
	}
	vni := uint32(b[4])<<16 | uint32(b[5])<<8 | uint32(b[6])
	return VXLAN{VNI: vni}, b[8:], nil
}

// Checksum computes the RFC 1071 internet checksum of b. A buffer whose
// checksum field holds the correct checksum sums to zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
