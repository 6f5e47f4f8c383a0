package netpkt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEthRoundTrip(t *testing.T) {
	h := Eth{Dst: MACFrom(1), Src: MACFrom(2), EtherType: EtherTypeIPv4}
	frame := h.Marshal(nil)
	frame = append(frame, 0xde, 0xad)
	got, payload, err := ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: %+v != %+v", got, h)
	}
	if !bytes.Equal(payload, []byte{0xde, 0xad}) {
		t.Fatalf("payload %v", payload)
	}
}

func TestEthTooShort(t *testing.T) {
	if _, _, err := ParseEth(make([]byte, 10)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	payload := []byte("some ip payload")
	h := IPv4{
		TOS:      0x10,
		TotalLen: uint16(IPv4HeaderLen + len(payload)),
		ID:       0x4242,
		TTL:      17,
		Proto:    ProtoUDP,
		Src:      IPFrom(1),
		Dst:      IPFrom(2),
	}
	pkt := h.Marshal(nil)
	pkt = append(pkt, payload...)
	got, pl, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{TotalLen: IPv4HeaderLen, Proto: ProtoTCP, Src: IPFrom(1), Dst: IPFrom(2)}
	pkt := h.Marshal(nil)
	pkt[12] ^= 0xff // corrupt source address
	if _, _, err := ParseIPv4(pkt); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestIPv4FragmentFlags(t *testing.T) {
	h := IPv4{TotalLen: IPv4HeaderLen + 8, MoreFrags: true, FragOffset: 1480, Proto: ProtoUDP}
	pkt := h.Marshal(nil)
	pkt = append(pkt, make([]byte, 8)...)
	got, _, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MoreFrags || got.FragOffset != 1480 || !got.IsFragment() {
		t.Fatalf("fragment fields: %+v", got)
	}
	if (IPv4{}).IsFragment() {
		t.Fatal("non-fragment misdetected")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3}
	h := UDP{SrcPort: 1111, DstPort: VXLANPort, Length: uint16(UDPHeaderLen + len(payload))}
	b := h.Marshal(nil)
	b = append(b, payload...)
	got, pl, err := ParseUDP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(pl, payload) {
		t.Fatalf("round trip: %+v / %v", got, pl)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCP{SrcPort: 50000, DstPort: 5201, Seq: 1e9, Ack: 77, Flags: TCPAck}
	b := h.Marshal(nil)
	b = append(b, []byte("segment")...)
	got, pl, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || string(pl) != "segment" {
		t.Fatalf("round trip: %+v / %q", got, pl)
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	h := VXLAN{VNI: 0xABCDEF}
	b := h.Marshal(nil)
	b = append(b, 42)
	got, pl, err := ParseVXLAN(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.VNI != 0xABCDEF || len(pl) != 1 {
		t.Fatalf("round trip: %+v / %v", got, pl)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 materials.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		data[0], data[1] = 0, 0
		cs := Checksum(data)
		data[0], data[1] = byte(cs>>8), byte(cs)
		return Checksum(data) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderCodecsProperty(t *testing.T) {
	f := func(tos uint8, id uint16, proto uint8, srcID, dstID uint16, n uint8) bool {
		payload := make([]byte, int(n))
		h := IPv4{
			TOS: tos, ID: id, Proto: proto, TTL: 64,
			TotalLen: uint16(IPv4HeaderLen + len(payload)),
			Src:      IPFrom(int(srcID)), Dst: IPFrom(int(dstID)),
		}
		pkt := append(h.Marshal(nil), payload...)
		got, pl, err := ParseIPv4(pkt)
		return err == nil && got == h && len(pl) == len(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Microsoft RSS verification suite vectors (IPv4 with TCP ports).
func TestToeplitzVectors(t *testing.T) {
	cases := []struct {
		src, dst         IP
		srcPort, dstPort uint16
		want             uint32
	}{
		{IP{66, 9, 149, 187}, IP{161, 142, 100, 80}, 2794, 1766, 0x51ccc178},
		{IP{199, 92, 111, 2}, IP{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea},
		{IP{24, 19, 198, 95}, IP{12, 22, 207, 184}, 12898, 38024, 0x5c2b394a},
		{IP{38, 27, 205, 30}, IP{209, 142, 163, 6}, 48228, 2217, 0xafc7327f},
		{IP{153, 39, 163, 191}, IP{202, 188, 127, 2}, 44251, 1303, 0x10e828a2},
	}
	for _, c := range cases {
		got := Toeplitz(FlowKey(c.src, c.dst, c.srcPort, c.dstPort))
		if got != c.want {
			t.Errorf("Toeplitz(%v:%d -> %v:%d) = %#x, want %#x",
				c.src, c.srcPort, c.dst, c.dstPort, got, c.want)
		}
	}
}

// Microsoft RSS vectors for the 2-tuple (IPv4 only) case.
func TestToeplitz2TupleVectors(t *testing.T) {
	cases := []struct {
		src, dst IP
		want     uint32
	}{
		{IP{66, 9, 149, 187}, IP{161, 142, 100, 80}, 0x323e8fc2},
		{IP{199, 92, 111, 2}, IP{65, 69, 140, 83}, 0xd718262a},
		{IP{24, 19, 198, 95}, IP{12, 22, 207, 184}, 0xd2d0a5de},
		{IP{38, 27, 205, 30}, IP{209, 142, 163, 6}, 0x82989176},
		{IP{153, 39, 163, 191}, IP{202, 188, 127, 2}, 0x5d1809c5},
	}
	for _, c := range cases {
		in := append(append([]byte{}, c.src[:]...), c.dst[:]...)
		if got := Toeplitz(in); got != c.want {
			t.Errorf("Toeplitz2(%v -> %v) = %#x, want %#x", c.src, c.dst, got, c.want)
		}
	}
}

func buildUDPFrame(src, dst IP, srcPort, dstPort uint16, payload []byte) []byte {
	udp := UDP{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UDPHeaderLen + len(payload))}
	l4 := append(udp.Marshal(nil), payload...)
	ip := IPv4{TotalLen: uint16(IPv4HeaderLen + len(l4)), Proto: ProtoUDP, Src: src, Dst: dst}
	l3 := append(ip.Marshal(nil), l4...)
	eth := Eth{Dst: MACFrom(99), Src: MACFrom(98), EtherType: EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

func TestRSSHashFragmentsFallBackTo2Tuple(t *testing.T) {
	frame := buildUDPFrame(IPFrom(1), IPFrom(2), 1000, 2000, make([]byte, 4000))
	full := RSSHash(frame)

	frags, err := FragmentEth(frame, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatal("expected fragmentation")
	}
	h0 := RSSHash(frags[0])
	h1 := RSSHash(frags[1])
	if h0 != h1 {
		t.Fatal("fragments of one packet must hash identically (2-tuple)")
	}
	if h0 == full {
		t.Fatal("fragment hash should differ from 4-tuple hash")
	}
}

func TestFragmentReassembleRoundTripProperty(t *testing.T) {
	f := func(size uint16, mtuSel uint8) bool {
		n := 100 + int(size)%8000
		mtu := 576 + int(mtuSel)*8
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		h := IPv4{TotalLen: uint16(IPv4HeaderLen + n), ID: 7, Proto: ProtoUDP, Src: IPFrom(3), Dst: IPFrom(4)}
		pkt := append(h.Marshal(nil), payload...)
		frags, err := FragmentIPv4(pkt, mtu)
		if err != nil {
			return false
		}
		// Reassemble by offset.
		out := make([]byte, n)
		seen := 0
		for _, f := range frags {
			fh, fp, err := ParseIPv4(f)
			if err != nil {
				return false
			}
			if len(f) > mtu {
				return false
			}
			copy(out[fh.FragOffset:], fp)
			seen += len(fp)
		}
		return seen == n && bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentRespectsDF(t *testing.T) {
	h := IPv4{TotalLen: uint16(IPv4HeaderLen + 3000), DontFrag: true, Proto: ProtoUDP}
	pkt := append(h.Marshal(nil), make([]byte, 3000)...)
	if _, err := FragmentIPv4(pkt, 1500); err == nil {
		t.Fatal("DF packet fragmented")
	}
}

func TestFragmentNoopWhenFits(t *testing.T) {
	h := IPv4{TotalLen: uint16(IPv4HeaderLen + 100), Proto: ProtoUDP}
	pkt := append(h.Marshal(nil), make([]byte, 100)...)
	frags, err := FragmentIPv4(pkt, 1500)
	if err != nil || len(frags) != 1 || !bytes.Equal(frags[0], pkt) {
		t.Fatalf("no-op fragmentation failed: %v, %d frags", err, len(frags))
	}
}

func TestMACIPStrings(t *testing.T) {
	if MACFrom(0x01020304).String() != "02:00:01:02:03:04" {
		t.Fatalf("MAC string: %s", MACFrom(0x01020304))
	}
	if IPFrom(0x010203).String() != "10.1.2.3" {
		t.Fatalf("IP string: %s", IPFrom(0x010203))
	}
}

// toeplitzBits is the bit-serial Toeplitz hash, the definition the table
// in Toeplitz is checked against: for every set input bit, XOR in the 32
// key bits starting at that bit's position, key bits past the end reading
// as zero.
func toeplitzBits(key [40]byte, input []byte) uint32 {
	var hash uint32
	// kw holds the next 64 key bits; the high 32 bits are the window
	// XORed into the hash whenever the current input bit is set. The
	// window slides one bit per input bit, refilled a byte at a time.
	kw := binary.BigEndian.Uint64(key[0:8])
	next := 8 // next key byte to shift in
	for _, b := range input {
		for bit := 0; bit < 8; bit++ {
			if b&0x80 != 0 {
				hash ^= uint32(kw >> 32)
			}
			b <<= 1
			kw <<= 1
		}
		if next < len(key) {
			kw |= uint64(key[next])
			next++
		}
	}
	return hash
}

// FuzzToeplitzTable checks the table-driven hash against the bit-serial
// definition, for every input length the key spans (0–36 bytes) and past
// it, where the key runs out.
func FuzzToeplitzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add(FlowKey(IPFrom(1), IPFrom(2), 1000, 2000))
	f.Add(bytes.Repeat([]byte{0xff}, 36))
	f.Add(bytes.Repeat([]byte{0x81}, 44))
	f.Fuzz(func(t *testing.T, in []byte) {
		if got, want := Toeplitz(in), toeplitzBits(DefaultToeplitzKey, in); got != want {
			t.Fatalf("Toeplitz(% x) = %#x, bit-serial %#x", in, got, want)
		}
	})
}

// BenchmarkToeplitzFlowKey hashes one fixed tuple, which is what the
// benchmark's probe does. With the bit-serial hash a fixed input trained
// the branch predictor and hid most of the cost; see
// BenchmarkToeplitzRandomFlows.
func BenchmarkToeplitzFlowKey(b *testing.B) {
	in := FlowKey(IPFrom(1), IPFrom(2), 1000, 2000)
	b.SetBytes(int64(len(in)))
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= Toeplitz(in)
	}
	toeplitzSink = sink
}

// BenchmarkToeplitzRandomFlows hashes 4 096 random tuples in turn, as a
// NIC hashing many flows does.
func BenchmarkToeplitzRandomFlows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins := make([][]byte, 4096)
	for i := range ins {
		ins[i] = make([]byte, 12)
		rng.Read(ins[i])
	}
	b.SetBytes(12)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= Toeplitz(ins[i%len(ins)])
	}
	toeplitzSink = sink
}

// toeplitzSink keeps the benchmarks' hashes live.
var toeplitzSink uint32

func BenchmarkChecksum1500(b *testing.B) {
	buf := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

func BenchmarkParseEthIPv4UDP(b *testing.B) {
	frame := buildUDPFrame(IPFrom(1), IPFrom(2), 10, 20, make([]byte, 512))
	for i := 0; i < b.N; i++ {
		eh, ip, _ := ParseEth(frame)
		_ = eh
		h, l4, _ := ParseIPv4(ip)
		_ = h
		ParseUDP(l4)
	}
}

func BenchmarkFragment1500At576(b *testing.B) {
	h := IPv4{TotalLen: uint16(IPv4HeaderLen + 1480), Proto: ProtoUDP, TTL: 64}
	pkt := append(h.Marshal(nil), make([]byte, 1480)...)
	for i := 0; i < b.N; i++ {
		FragmentIPv4(pkt, 576)
	}
}
