package hostmem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New("host", 1<<24)
	data := []byte("hello flexdriver")
	m.WriteAt(0x1234, data)
	if got := m.ReadAt(0x1234, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
}

func TestZeroFill(t *testing.T) {
	m := New("host", 1<<20)
	got := m.ReadAt(0x500, 16)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("unwritten memory not zero: %v", got)
		}
	}
}

// TestReadsDoNotMaterialisePages: reading memory nobody wrote (a ring
// prefetch past the producer, a zero-filled receive buffer) returns zeros
// and leaves the backing store as it was; only writes grow it.
func TestReadsDoNotMaterialisePages(t *testing.T) {
	m := New("host", 1<<24)
	m.WriteAt(10, []byte{1, 2, 3})
	if got := m.mem.materialised(); got != granule {
		t.Fatalf("a 3-byte write materialised %d bytes, want one granule", got)
	}
	// Untouched windows, and a span from the written granule into untouched ones.
	got := m.ReadAt(5*window-8, 2*window)
	mmio := bytes.Repeat([]byte{0xee}, 3*window)
	m.MMIORead(8, mmio)
	got = append(got, mmio...)
	dst := bytes.Repeat([]byte{0xee}, 64)
	m.ReadInto(9*window+1, dst)
	got = append(got, dst...)
	for i, b := range got {
		if want := map[int]byte{2*window + 2: 1, 2*window + 3: 2, 2*window + 4: 3}[i]; b != want {
			t.Fatalf("byte %d reads %#x, want %#x", i, b, want)
		}
	}
	if got := m.mem.materialised(); got != granule {
		t.Fatalf("reads grew the backing store from %d to %d bytes", granule, got)
	}
	if avg := testing.AllocsPerRun(100, func() { m.ReadAt(3*window-100, 4096) }); avg > 1 {
		t.Fatalf("ReadAt: %.1f allocations, want at most 1 (the result)", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.ReadInto(3*window-100, dst) }); avg != 0 {
		t.Fatalf("ReadInto: %.1f allocations, want 0", avg)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New("host", 1<<20)
	data := make([]byte, 3*window/2)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := uint64(window - 100)
	m.WriteAt(off, data)
	if got := m.ReadAt(off, len(data)); !bytes.Equal(got, data) {
		t.Fatal("cross-window round trip failed")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New("host", 4096)
	for _, f := range []func(){
		func() { m.WriteAt(4090, make([]byte, 8)) },
		func() { m.ReadAt(4096, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access did not panic")
				}
			}()
			f()
		}()
	}
}

// TestWrappingSpanPanics: a span whose end wraps 2^64 is out of bounds
// like any other — the check must not add before it compares. Each row
// passed the old check (the wrapped end is a small number), after which a
// write materialised pages at absurd indices, a read returned zeros from
// them and Alloc moved its cursor backwards.
func TestWrappingSpanPanics(t *testing.T) {
	m := New("host", 1<<20)
	for _, tc := range []struct {
		msg string
		f   func()
	}{
		{"hostmem: write of 8 bytes at 0xfffffffffffffffc beyond size 0x100000",
			func() { m.WriteAt(math.MaxUint64-3, make([]byte, 8)) }},
		{"hostmem: read of 16 bytes at 0xfffffffffffffff8 beyond size 0x100000",
			func() { m.ReadInto(math.MaxUint64-7, make([]byte, 16)) }},
		{"hostmem: out of memory allocating 18446744073709547520 bytes at 0x1000 of 0x100000",
			func() { m.Alloc(math.MaxUint64-0xfff, 1) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.msg {
					t.Errorf("panic %v, want %q", got, tc.msg)
				}
			}()
			tc.f()
		}()
		if m.mem.materialised() != 0 || m.next != 0x1000 {
			t.Fatalf("%s: left %d bytes and cursor %#x behind", tc.msg, m.mem.materialised(), m.next)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	m := New("host", 1<<20)
	a := m.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("alloc not aligned: %#x", a)
	}
	b := m.Alloc(100, 4096)
	if b%4096 != 0 {
		t.Fatalf("alloc not aligned: %#x", b)
	}
	if b < a+10 {
		t.Fatal("allocations overlap")
	}
	if m.next < b+100 {
		t.Fatal("Used under-reports")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New("host", 1<<16)
	defer func() {
		if recover() == nil {
			t.Error("OOM did not panic")
		}
	}()
	m.Alloc(1<<16, 1)
}

func TestAllocBadAlignPanics(t *testing.T) {
	m := New("host", 1<<16)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two align did not panic")
		}
	}()
	m.Alloc(8, 3)
}

func TestRoundTripProperty(t *testing.T) {
	m := New("host", 1<<22)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := uint64(off) % (1<<22 - uint64(len(data)))
		m.WriteAt(o, data)
		return bytes.Equal(m.ReadAt(o, len(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMMIOInterface(t *testing.T) {
	m := New("host", 1<<16)
	m.MMIOWrite(0x10, []byte{1, 2, 3})
	if got := make([]byte, 3); !m.MMIORead(0x10, got) || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("MMIO round trip: %v", got)
	}
	if m.PCIeName() != "host" || m.BARSize() != 1<<16 {
		t.Fatal("identity accessors wrong")
	}
}
