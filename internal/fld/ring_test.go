package fld

import (
	"testing"

	"flexdriver/internal/nic"
)

// TestTxCQEPastProducerReleasesNothing: a transmit CQE for an index the
// FLD never posted, at or past its producer index, is stale, like one from
// before its consumer index. It releases no descriptor, page or credit:
// read as "everything up to here is done", it would free descriptors and
// payload pages the NIC may still be reading. A CQE inside the posted
// window still retires exactly the entries up to its index.
func TestTxCQEPastProducerReleasesNothing(t *testing.T) {
	eng, _, f := newFLD(t, DefaultConfig())
	for i := 0; i < 3; i++ {
		if err := f.Send(0, make([]byte, 1024), Metadata{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	complete := func(idx uint16) {
		c := nic.CQE{Opcode: nic.CQESend, Index: idx, Queue: 1}
		f.MMIOWrite(f.txCQBase, c.Marshal())
	}
	slots, bufs := f.Credits(0)
	for _, idx := range []uint16{3, 4, 0x7fff, 0xffff} {
		complete(idx)
		if s, b := f.Credits(0); s != slots || b != bufs {
			t.Fatalf("CQE at index %#x (producer index 3) released credits: slots %d -> %d, bytes %d -> %d",
				idx, slots, s, bufs, b)
		}
	}
	complete(1)
	if s, _ := f.Credits(0); s != slots+2 || f.Quiesced() {
		t.Fatalf("CQE at index 1 left %d slots (want %d) and quiesced=%v: it retires indices 0 and 1 only",
			s, slots+2, f.Quiesced())
	}
}

// TestRetiredDescriptorReadsInvalid: retiring a descriptor removes its
// ring translation, so a NIC that re-reads the slot (a replay after the
// completion it never saw) gets an invalid WQE instead of a stale one.
func TestRetiredDescriptorReadsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WQEByMMIO = false
	eng, _, f := newFLD(t, cfg)
	for i := 0; i < 2; i++ {
		if err := f.Send(0, make([]byte, 64), Metadata{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	c := nic.CQE{Opcode: nic.CQESend, Index: 0, Queue: 1}
	f.MMIOWrite(f.txCQBase, c.Marshal())
	if op := mmioRead(f, f.txDescBase, nic.SendWQESize)[0]; op != 0xff {
		t.Fatalf("retired descriptor 0 reads opcode %#x, want invalid", op)
	}
	if op := mmioRead(f, f.txDescBase+nic.SendWQESize, nic.SendWQESize)[0]; op != nic.OpSend {
		t.Fatalf("posted descriptor 1 reads opcode %#x, want a send", op)
	}
}
