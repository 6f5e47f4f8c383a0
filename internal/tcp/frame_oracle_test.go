package tcp

import (
	"bytes"
	"math/rand"
	"testing"

	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

// refBuildFrame is TCP framing as this package first wrote it: one buffer
// per layer, each wrapping the one inside it. It stays here as the oracle
// for AppendHeaders' single front-to-back pass.
func refBuildFrame(srcMAC, dstMAC netpkt.MAC, srcIP, dstIP netpkt.IP, seg Segment, payload []byte) []byte {
	l4 := append(seg.Marshal(nil), payload...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoTCP,
		Src: srcIP, Dst: dstIP}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: dstMAC, Src: srcMAC, EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

// TestBuildFrameMatchesLayeredReference: over random segments, at every
// payload length from none to a full 1 500 B, BuildFrame is byte-identical
// to the layer-by-layer assembly, exactly sized, and parses back; and
// AppendHeaders into a dirty recycled buffer writes every header byte, the
// checksum field included — pooled buffers are not zeroed, and the kv AFU
// frames its responses in one.
func TestBuildFrameMatchesLayeredReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 1500)
	rng.Read(payload)
	bufs := sim.NewBufPool()
	for n := 0; n <= len(payload); n++ {
		seg := Segment{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Seq: rng.Uint32(), Ack: rng.Uint32(), Flags: uint8(rng.Uint32()),
			Window: uint16(rng.Uint32()), Epoch: uint8(rng.Uint32())}
		srcMAC, dstMAC := netpkt.MACFrom(rng.Int()), netpkt.MACFrom(rng.Int())
		srcIP, dstIP := netpkt.IPFrom(rng.Int()), netpkt.IPFrom(rng.Int())

		want := refBuildFrame(srcMAC, dstMAC, srcIP, dstIP, seg, payload[:n])
		got := BuildFrame(srcMAC, dstMAC, srcIP, dstIP, seg, payload[:n])
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: frame differs from the layered reference\n got %x\nwant %x", n, got, want)
		}
		if len(got) != cap(got) || len(got) != FrameOverhead+n {
			t.Fatalf("%d-byte payload: len %d cap %d, want both %d", n, len(got), cap(got), FrameOverhead+n)
		}
		info, p, ok := ParseFrame(got)
		if !ok || info.Seg != seg || info.Eth.Src != srcMAC || info.IP.Dst != dstIP || !bytes.Equal(p, payload[:n]) {
			t.Fatalf("%d-byte payload: ParseFrame gave ok=%v %v, %d payload bytes", n, ok, info.Seg, len(p))
		}

		dirty := bufs.Get(FrameOverhead + n)
		for i := range dirty[:cap(dirty)] {
			dirty[:cap(dirty)][i] = 0xff
		}
		pooled := append(AppendHeaders(dirty[:0], srcMAC, dstMAC, srcIP, dstIP, seg, n), payload[:n]...)
		if !bytes.Equal(pooled, want) || &pooled[0] != &dirty[0] {
			t.Fatalf("%d-byte payload: headers appended to a 0xff-filled pooled buffer differ from the fresh frame (or left the buffer)\n got %x\nwant %x", n, pooled, want)
		}
		bufs.Put(pooled)
	}

	seg := Segment{SrcPort: 1, DstPort: 2, Flags: FlagAck}
	if avg := testing.AllocsPerRun(100, func() {
		BuildFrame(netpkt.MACFrom(1), netpkt.MACFrom(2), netpkt.IPFrom(1), netpkt.IPFrom(2), seg, payload[:200])
	}); avg != 1 {
		t.Errorf("BuildFrame: %.1f allocations per frame, want 1 (11 layer by layer)", avg)
	}
}
