package defrag

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

func buildFrame(id uint16, srcID, dstID int, sport, dport uint16, n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(int(id) + i)
	}
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), payload...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), ID: id,
		Proto: netpkt.ProtoUDP, Src: netpkt.IPFrom(srcID), Dst: netpkt.IPFrom(dstID)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(dstID), Src: netpkt.MACFrom(srcID), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

func fragments(t *testing.T, frame []byte, mtu int) [][]byte {
	t.Helper()
	frags, err := netpkt.FragmentEth(frame, mtu)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatal("expected fragmentation")
	}
	return frags
}

// equivalent compares frames ignoring the IP header's checksum/frag-field
// bytes (the reassembled header is legitimately rebuilt).
func payloadOf(t *testing.T, frame []byte) []byte {
	t.Helper()
	_, ipb, err := netpkt.ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	_, pl, err := netpkt.ParseIPv4(ipb)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestReassembleInOrder(t *testing.T) {
	r := NewReassembler(sim.Millisecond, 64)
	orig := buildFrame(7, 1, 2, 10, 20, 3000)
	frags := fragments(t, orig, 1500)
	var out []byte
	for i, f := range frags {
		got, done := r.Add(f, 0)
		if i < len(frags)-1 && done {
			t.Fatalf("completed early at fragment %d", i)
		}
		if done {
			out = got
		}
	}
	if out == nil {
		t.Fatal("never completed")
	}
	if !bytes.Equal(payloadOf(t, out), payloadOf(t, orig)) {
		t.Fatal("payload corrupted")
	}
	if len(r.table) != 0 {
		t.Fatalf("pending = %d", len(r.table))
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	r := NewReassembler(sim.Millisecond, 64)
	orig := buildFrame(9, 1, 2, 10, 20, 5000)
	frags := fragments(t, orig, 1000)
	perm := rand.New(rand.NewSource(3)).Perm(len(frags))
	var out []byte
	for _, i := range perm {
		if got, done := r.Add(frags[i], 0); done {
			out = got
		}
	}
	if out == nil || !bytes.Equal(payloadOf(t, out), payloadOf(t, orig)) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestInterleavedFlows(t *testing.T) {
	r := NewReassembler(sim.Millisecond, 64)
	a := buildFrame(1, 1, 2, 10, 20, 2800)
	b := buildFrame(2, 3, 4, 30, 40, 2800)
	fa := fragments(t, a, 1500)
	fb := fragments(t, b, 1500)
	var outs [][]byte
	for i := range fa {
		if got, done := r.Add(fa[i], 0); done {
			outs = append(outs, got)
		}
		if got, done := r.Add(fb[i], 0); done {
			outs = append(outs, got)
		}
	}
	if len(outs) != 2 {
		t.Fatalf("completed %d datagrams, want 2", len(outs))
	}
	if !bytes.Equal(payloadOf(t, outs[0]), payloadOf(t, a)) ||
		!bytes.Equal(payloadOf(t, outs[1]), payloadOf(t, b)) {
		t.Fatal("flows cross-contaminated")
	}
}

func TestDuplicateFragmentsHarmless(t *testing.T) {
	r := NewReassembler(sim.Millisecond, 64)
	orig := buildFrame(5, 1, 2, 10, 20, 3000)
	frags := fragments(t, orig, 1500)
	r.Add(frags[0], 0)
	r.Add(frags[0], 0) // duplicate
	var out []byte
	for _, f := range frags[1:] {
		if got, done := r.Add(f, 0); done {
			out = got
		}
	}
	if out == nil || !bytes.Equal(payloadOf(t, out), payloadOf(t, orig)) {
		t.Fatal("duplicate fragment broke reassembly")
	}
}

func TestNonFragmentPassesThrough(t *testing.T) {
	r := NewReassembler(sim.Millisecond, 64)
	frame := buildFrame(11, 1, 2, 10, 20, 500)
	got, done := r.Add(frame, 0)
	if !done || !bytes.Equal(got, frame) {
		t.Fatal("non-fragment should pass through unchanged")
	}
}

func TestTimeoutExpiresStaleDatagrams(t *testing.T) {
	r := NewReassembler(10*sim.Microsecond, 64)
	orig := buildFrame(5, 1, 2, 10, 20, 3000)
	frags := fragments(t, orig, 1500)
	r.Add(frags[0], 0)
	if len(r.table) != 1 {
		t.Fatal("datagram not pending")
	}
	// The rest arrives too late.
	if _, done := r.Add(frags[1], 20*sim.Microsecond); done {
		t.Fatal("expired datagram completed")
	}
	if r.Expired != 1 {
		t.Fatalf("expired = %d", r.Expired)
	}
}

func TestCapacityEviction(t *testing.T) {
	r := NewReassembler(sim.Second, 2)
	for id := uint16(1); id <= 3; id++ {
		frags := fragments(t, buildFrame(id, 1, 2, 10, 20, 3000), 1500)
		r.Add(frags[0], 0)
	}
	if len(r.table) != 2 || r.Evicted != 1 {
		t.Fatalf("pending=%d evicted=%d", len(r.table), r.Evicted)
	}
}

func TestReassembledHeaderValid(t *testing.T) {
	r := NewReassembler(sim.Millisecond, 64)
	orig := buildFrame(21, 1, 2, 10, 20, 4000)
	frags := fragments(t, orig, 1500)
	var out []byte
	for _, f := range frags {
		if got, done := r.Add(f, 0); done {
			out = got
		}
	}
	_, ipb, err := netpkt.ParseEth(out)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := netpkt.ParseIPv4(ipb) // re-validates checksum
	if err != nil {
		t.Fatal(err)
	}
	if h.IsFragment() {
		t.Fatal("reassembled packet still marked fragmented")
	}
	// RSS must now see the 4-tuple again (the experiment's whole point).
	if netpkt.RSSHash(out) != netpkt.RSSHash(buildFrame(99, 1, 2, 10, 20, 100)) {
		t.Fatal("reassembled packet does not hash like its flow")
	}
}

// Property: fragment at random MTUs, deliver in random order, always get
// the original payload back.
func TestReassembleProperty(t *testing.T) {
	f := func(seed int64, sizeSel uint16, mtuSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1600 + int(sizeSel)%6000
		mtu := 576 + int(mtuSel)%1200
		orig := buildFrame(uint16(seed), 1, 2, 10, 20, size)
		frags, err := netpkt.FragmentEth(orig, mtu)
		if err != nil || len(frags) < 2 {
			return true
		}
		r := NewReassembler(sim.Second, 128)
		var out []byte
		for _, i := range rng.Perm(len(frags)) {
			if got, done := r.Add(frags[i], 0); done {
				out = got
			}
		}
		if out == nil {
			return false
		}
		_, ipb, _ := netpkt.ParseEth(out)
		_, pl, err := netpkt.ParseIPv4(ipb)
		if err != nil {
			return false
		}
		_, iporig, _ := netpkt.ParseEth(orig)
		_, plorig, _ := netpkt.ParseIPv4(iporig)
		return bytes.Equal(pl, plorig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReassemble4KBDatagram(b *testing.B) {
	orig := buildFrame(7, 1, 2, 10, 20, 4000)
	frags, err := netpkt.FragmentEth(orig, 1500)
	if err != nil {
		b.Fatal(err)
	}
	r := NewReassembler(sim.Second, 1024)
	b.SetBytes(int64(len(orig)))
	for i := 0; i < b.N; i++ {
		var done bool
		for _, f := range frags {
			_, done = r.Add(f, 0)
		}
		if !done {
			b.Fatal("did not complete")
		}
	}
}
