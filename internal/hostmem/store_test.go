package hostmem

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// materialised counts the bytes the store's granules hold.
func (s *Store) materialised() int {
	n := 0
	for _, t := range s.win {
		if t != nil {
			for _, g := range t {
				if g != nil {
					n += granule
				}
			}
		}
	}
	return n
}

// storeSize is three index windows and a partial granule: a program reaches
// the second index level, a granule the end cuts short and offsets past it.
const storeSize = 3*window + 300

// storeStep encodes one step of a FuzzStore program.
func storeStep(write bool, off uint32, n uint16) []byte {
	b := make([]byte, 7)
	if write {
		b[0] = 1
	}
	binary.LittleEndian.PutUint32(b[1:], off)
	binary.LittleEndian.PutUint16(b[5:], n)
	return b
}

// FuzzStore runs a bounded program of interleaved writes and reads against
// a flat []byte of the same size. A step is 7 bytes: an op (odd writes), a
// 32-bit offset reduced to two granules past the end, and a length under
// five granules. Every read matches the flat slice byte for byte and leaves
// the tail of dst past the end untouched, as copy does; an access that
// starts past the end moves nothing. After every step the store holds
// exactly the granules some write covered, so a read never materialises one.
func FuzzStore(f *testing.F) {
	prog := func(steps ...[]byte) []byte { return bytes.Join(steps, nil) }
	f.Add(prog(storeStep(true, 1000, 100), storeStep(false, 990, 200))) // straddles a granule
	f.Add(prog(storeStep(true, 0, 4*granule), storeStep(true, 4*granule-10, 30),
		storeStep(false, 4*granule-200, 400))) // straddles the first two slabs
	f.Add(prog(storeStep(true, window-10, 50), storeStep(false, window-100, 300),
		storeStep(false, 2*window-1, 2))) // straddles an index window; reads an empty one
	f.Add(prog(storeStep(true, storeSize-100, 300), storeStep(false, storeSize-50, 100),
		storeStep(true, storeSize+5, 10), storeStep(false, storeSize+5, 10),
		storeStep(false, storeSize, 3))) // clips at the end; starts past it
	f.Add(prog(storeStep(true, 3*window-2000, 5000), storeStep(true, 1, 5119),
		storeStep(false, 0, 5119), storeStep(false, 3*window-4000, 5119)))
	f.Fuzz(func(t *testing.T, prog []byte) {
		s, flat := NewStore(storeSize), make([]byte, storeSize)
		written := map[uint64]bool{} // granule numbers
		for i := 0; i+7 <= len(prog) && i < 7*64; i += 7 {
			off := uint64(binary.LittleEndian.Uint32(prog[i+1:])) % (storeSize + 2*granule)
			n := int(binary.LittleEndian.Uint16(prog[i+5:])) % (5 * granule)
			end := min(off+uint64(n), storeSize)
			if prog[i]&1 == 1 {
				data := make([]byte, n)
				for k := range data {
					data[k] = byte(i + 7*k + 1)
				}
				s.Write(off, data)
				if off < end {
					copy(flat[off:], data)
					for g := off / granule; g <= (end-1)/granule; g++ {
						written[g] = true
					}
				}
			} else {
				got, want := bytes.Repeat([]byte{0xAA}, n), bytes.Repeat([]byte{0xAA}, n)
				s.Read(got, off)
				if off < storeSize {
					copy(want, flat[off:])
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: read of %d bytes at %#x differs from the flat slice", i/7, n, off)
				}
			}
			if got := s.materialised(); got != len(written)*granule {
				t.Fatalf("step %d: %d bytes materialised, writes covered %d granules", i/7, got, len(written))
			}
		}
	})
}

// TestStoreWarmPairAllocatesNothing: once its granules exist, a write and a
// read of a frame that straddles two of them allocate nothing.
func TestStoreWarmPairAllocatesNothing(t *testing.T) {
	s := NewStore(1 << 20)
	frame, dst := make([]byte, 300), make([]byte, 300)
	s.Write(window-100, frame)
	if avg := testing.AllocsPerRun(100, func() {
		s.Write(window-100, frame)
		s.Read(dst, window-100)
	}); avg != 0 {
		t.Fatalf("warm write/read pair: %.1f allocations, want 0", avg)
	}
}

// TestStoreCarvesGranulesFromSlabs: a 512-slot ring of 2 KiB buffers with a
// small frame at the head of each slot materialises one granule per slot,
// and those 512 granules are a dozen slabs (4, 8, 16, 32 KiB, then 64 KiB
// each), not 512 objects; a store that writes one frame pays 4 KiB.
func TestStoreCarvesGranulesFromSlabs(t *testing.T) {
	var s Store
	frame := make([]byte, 64)
	slots := []uint64{511} // the last slot first, so the window slice grows once
	for slot := uint64(0); slot < 511; slot++ {
		slots = append(slots, slot)
	}
	avg := testing.AllocsPerRun(1, func() {
		s = NewStore(1 << 30)
		for _, slot := range slots {
			s.Write(0x1000+slot*2048, frame)
		}
	})
	t.Logf("%.0f allocations for 512 granules", avg)
	// Twelve slabs, seventeen index tables (the ring spans seventeen 64 KiB
	// windows), the window slice, and the slice the race detector's build
	// allocates to append to it.
	if avg > 12+17+2 {
		t.Fatalf("%.0f allocations for 512 granules", avg)
	}
	if got := s.materialised(); got != 512*granule {
		t.Fatalf("%d bytes materialised, want 512 granules", got)
	}
	// A store that writes one frame holds the first 4 KiB slab and one
	// index table, not a 64 KiB page.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	one := NewStore(1 << 30)
	one.Write(0x1000, frame)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > firstSlab+1024 {
		t.Fatalf("one 64 B write allocated %d bytes", got)
	}
}
