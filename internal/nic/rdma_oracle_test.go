package nic

import (
	"bytes"
	"testing"

	"flexdriver/internal/netpkt"
)

// refRoCEFrame is RoCE framing as this package first wrote it: one buffer
// per layer, each wrapping the one inside it. It stays here as the oracle
// for QP.frame's single front-to-back pass.
func refRoCEFrame(qp *QP, srcPort uint16, op uint8, psn uint32, payload []byte) []byte {
	bth := BTH{Opcode: op, Epoch: qp.connEpoch, DestQPN: qp.remoteQPN, PSN: psn}
	l4 := bth.marshal(nil)
	l4 = append(l4, payload...)
	l4 = append(l4, 0, 0, 0, 0) // ICRC placeholder
	udp := netpkt.UDP{SrcPort: srcPort, DstPort: netpkt.RoCEPort,
		Length: uint16(netpkt.UDPHeaderLen + len(l4))}
	l3p := append(udp.Marshal(nil), l4...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l3p)), Proto: netpkt.ProtoUDP,
		Src: qp.n.IP, Dst: qp.remoteNIC.IP}
	l2p := append(ip.Marshal(nil), l3p...)
	eth := netpkt.Eth{Dst: qp.remoteNIC.MAC, Src: qp.n.MAC, EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l2p...)
}

// TestRoCEFramingMatchesLayeredReference: data packets, as emit frames
// them from a slice of their message, and ACK/NAKs reach the wire
// byte-identical to the layer-by-layer assembly and round-trip through
// parseRoCE, at the payload lengths where an off-by-one would show and in
// both connection epochs.
func TestRoCEFramingMatchesLayeredReference(t *testing.T) {
	h := newRDMAHarness(t, 1024)
	var onWire [][]byte
	h.wire.Loss = func(_ int, frame []byte) bool {
		onWire = append(onWire, bytes.Clone(frame)) // the hook borrows the frame
		return true
	}
	payload := make([]byte, h.qpA.MTU)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	for epoch := uint8(0); epoch < 2; epoch++ {
		if h.qpA.connEpoch != epoch || h.qpB.connEpoch != epoch {
			t.Fatalf("epochs %d/%d, want %d", h.qpA.connEpoch, h.qpB.connEpoch, epoch)
		}
		for _, n := range []int{0, 1, h.qpA.MTU - 1, h.qpA.MTU} {
			psn := uint32(0xabc000 + n)
			// The packet is the second segment of a message that
			// starts with 3 bytes of something else.
			pkt := txPkt{msg: h.eng.Bufs().Clone(append([]byte{9, 9, 9}, payload[:n]...)), off: 3, n: uint32(n), op: btSendMiddle}
			onWire = onWire[:0]
			h.qpA.emit(psn, &pkt)
			h.eng.Bufs().Put(pkt.msg)
			h.eng.Run()
			if len(onWire) != 1 {
				t.Fatalf("emit put %d frames on the wire, want 1", len(onWire))
			}
			got := onWire[0]
			want := refRoCEFrame(h.qpA, 0xC000|uint16(h.qpA.QPN&0x3fff), btSendMiddle, psn, payload[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("epoch %d, %d-byte payload: frame differs from the layered reference\n got %x\nwant %x", epoch, n, got, want)
			}
			if len(got) != RoCEOverhead+n {
				t.Errorf("epoch %d, %d-byte payload: len %d, want %d", epoch, n, len(got), RoCEOverhead+n)
			}
			bth, p, ok := parseRoCE(got)
			if !ok || bth != (BTH{Opcode: btSendMiddle, Epoch: epoch, DestQPN: h.qpB.QPN, PSN: psn}) || !bytes.Equal(p, payload[:n]) {
				t.Fatalf("epoch %d, %d-byte payload: parseRoCE gave ok=%v bth=%+v, %d payload bytes", epoch, n, ok, bth, len(p))
			}
		}
		for _, op := range []uint8{btAck, btNak} {
			onWire = onWire[:0]
			h.qpB.sendCtl(op, 41)
			h.eng.Run()
			if len(onWire) != 1 {
				t.Fatalf("sendCtl put %d frames on the wire, want 1", len(onWire))
			}
			if want := refRoCEFrame(h.qpB, 0xC000, op, 41, nil); !bytes.Equal(onWire[0], want) {
				t.Fatalf("epoch %d, opcode %#x: control frame differs from the layered reference\n got %x\nwant %x", epoch, op, onWire[0], want)
			}
			bth, p, ok := parseRoCE(onWire[0])
			if !ok || bth != (BTH{Opcode: op, Epoch: epoch, DestQPN: h.qpA.QPN, PSN: 41}) || len(p) != 0 {
				t.Fatalf("epoch %d, opcode %#x: parseRoCE gave ok=%v bth=%+v, %d payload bytes", epoch, op, ok, bth, len(p))
			}
		}
		ReconnectQPs(h.qpA, h.qpB)
	}
}
