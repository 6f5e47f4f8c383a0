package echo

import (
	"bytes"
	"testing"

	"flexdriver/internal/fld"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// TestReceiveSendsBackOnTheArrivalQueue: what Receive is handed reappears,
// byte for byte, as a transmit descriptor on the FLD queue QueueFor picks
// for it, and on no other.
func TestReceiveSendsBackOnTheArrivalQueue(t *testing.T) {
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng)
	n := nic.New("nic", eng, nic.DefaultParams()) // a doorbell sink
	n.AttachPCIe(fab, pcie.Gen3x8())
	f := fld.New(eng, fld.DefaultConfig())
	base := f.AttachPCIe(fab, pcie.Gen3x8()).Base()
	f.BindNIC(n)
	a := New(f)
	a.QueueFor = func(md fld.Metadata) int { return md.Queue }

	pkt := bytes.Repeat([]byte{0xec, 0x40}, 300)
	a.Receive(pkt, fld.Metadata{Queue: 1, Tag: 9})
	if a.Echoed != 1 || a.Dropped != 0 {
		t.Fatalf("echoed=%d dropped=%d, want 1 and 0", a.Echoed, a.Dropped)
	}
	w, err := nic.ParseSendWQE(mmioRead(f, f.TxRingAddr(1)-base, nic.SendWQESize))
	if err != nil || w.Opcode != nic.OpSend || w.FlowTag != 9 {
		t.Fatalf("queue 1 descriptor: %+v, %v", w, err)
	}
	if got := mmioRead(f, w.Addr-base, int(w.Len)); !bytes.Equal(got, pkt) {
		t.Fatalf("queue 1 carries %d bytes that differ from the %d received", len(got), len(pkt))
	}
	if other := mmioRead(f, f.TxRingAddr(0)-base, nic.SendWQESize); other[0] != 0xff {
		t.Fatalf("queue 0 has a descriptor too (opcode %#x)", other[0])
	}
}

// mmioRead reads n bytes of the FLD's BAR into a fresh buffer.
func mmioRead(f *fld.FLD, off uint64, n int) []byte {
	b := make([]byte, n)
	f.MMIORead(off, b)
	return b
}
