package hostmem

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"flexdriver/internal/sim"
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

// The ops of a FuzzStore step.
const (
	opRead    = 0
	opWrite   = 1 // any odd op
	opDiscard = 2 // any even op with bit 1 set
)

// storeStep encodes one step of a FuzzStore program.
func storeStep(op byte, off uint32, n uint16) []byte {
	b := make([]byte, 7)
	b[0] = op
	binary.LittleEndian.PutUint32(b[1:], off)
	binary.LittleEndian.PutUint16(b[5:], n)
	return b
}

// FuzzStore runs a bounded program of interleaved writes, reads and
// discards against a flat []byte of the same size. A step is 7 bytes: an op
// (odd writes, else bit 1 discards), a 32-bit offset reduced to two
// granules past the end, and a length under five granules. A discard
// zeroes the whole granules its range covers in the flat slice (poisons
// them under the pooldebug tag). Every read matches the flat slice byte
// for byte and leaves the tail of dst past the end untouched, as copy
// does; an access that starts past the end moves nothing. After every step
// the store holds exactly the granules some write covered and no discard
// dropped since, so a read never materialises one.
func FuzzStore(f *testing.F) {
	prog := func(steps ...[]byte) []byte { return bytes.Join(steps, nil) }
	f.Add(prog(storeStep(opWrite, 1000, 100), storeStep(opRead, 990, 200))) // straddles a granule
	f.Add(prog(storeStep(opWrite, 0, 4*granule), storeStep(opWrite, 4*granule-10, 30),
		storeStep(opRead, 4*granule-200, 400))) // straddles the first two slabs
	f.Add(prog(storeStep(opWrite, window-10, 50), storeStep(opRead, window-100, 300),
		storeStep(opRead, 2*window-1, 2))) // straddles an index window; reads an empty one
	f.Add(prog(storeStep(opWrite, storeSize-100, 300), storeStep(opRead, storeSize-50, 100),
		storeStep(opWrite, storeSize+5, 10), storeStep(opRead, storeSize+5, 10),
		storeStep(opRead, storeSize, 3))) // clips at the end; starts past it
	f.Add(prog(storeStep(opWrite, 3*window-2000, 5000), storeStep(opWrite, 1, 5119),
		storeStep(opRead, 0, 5119), storeStep(opRead, 3*window-4000, 5119)))
	f.Add(prog(storeStep(opWrite, 0, 3*granule), storeStep(opDiscard, 100, 2*granule),
		storeStep(opRead, 0, 3*granule), storeStep(opWrite, window+5, 10),
		storeStep(opRead, window, 2*granule))) // keeps partial granules; reuses the spare
	f.Fuzz(func(t *testing.T, prog []byte) {
		s, flat := NewStore(storeSize), make([]byte, storeSize)
		written := map[uint64]bool{} // granule numbers
		for i := 0; i+7 <= len(prog) && i < 7*64; i += 7 {
			off := uint64(binary.LittleEndian.Uint32(prog[i+1:])) % (storeSize + 2*granule)
			n := int(binary.LittleEndian.Uint16(prog[i+5:])) % (5 * granule)
			end := min(off+uint64(n), storeSize)
			switch {
			case prog[i]&1 == 1:
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
			case prog[i]&2 == 2:
				s.Discard(off, uint64(n))
				for g := (off + granule - 1) / granule; (g+1)*granule <= end; g++ {
					if written[g] && sim.PoolDebug {
						copy(flat[g*granule:], bytes.Repeat([]byte{0xA5}, granule))
					} else if written[g] {
						clear(flat[g*granule : (g+1)*granule])
						delete(written, g)
					}
				}
			default:
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

// TestStoreDiscard: Discard drops the whole granules of its range and keeps
// a granule it covers in part; the dropped ones read as zero, and the next
// first writes take them back, cleared, before carving a new one, so a
// warm write/read/discard cycle allocates nothing. Under the pooldebug tag
// a discarded granule stays in place, poisoned.
func TestStoreDiscard(t *testing.T) {
	s := NewStore(1 << 20)
	s.Write(0, bytes.Repeat([]byte{7}, 3*granule))
	held := s.at(granule)
	s.Discard(100, 2*granule) // granule 1 whole; 0 and 2 in part
	got, want := make([]byte, 3*granule), bytes.Repeat([]byte{7}, 3*granule)
	s.Read(got, 0)
	dead := byte(0)
	if sim.PoolDebug {
		dead = 0xA5
	}
	copy(want[granule:2*granule], bytes.Repeat([]byte{dead}, granule))
	if !bytes.Equal(got, want) {
		t.Fatalf("after a discard of [100, %d) the store reads %v", 100+2*granule, got)
	}
	if sim.PoolDebug {
		if s.at(granule) != held || s.materialised() != 3*granule {
			t.Fatal("pooldebug: a discarded granule left its place")
		}
		return
	}
	if s.at(0) == nil || s.at(2*granule) == nil || s.at(granule) != nil {
		t.Fatal("Discard dropped a partial granule or kept a whole one")
	}
	slab := len(s.slab)
	s.Write(window+5, []byte{1, 2, 3})
	if s.at(window) != held || len(s.slab) != slab {
		t.Fatal("a first write carved a granule while a spare waited")
	}
	got = make([]byte, granule)
	s.Read(got, window)
	if want := append(append(make([]byte, 5), 1, 2, 3), make([]byte, granule-8)...); !bytes.Equal(got, want) {
		t.Fatalf("a reused spare reads %v", got)
	}
	frame, dst := make([]byte, 300), make([]byte, 300)
	if avg := testing.AllocsPerRun(100, func() {
		s.Write(4*granule+10, frame)
		s.Read(dst, 4*granule+10)
		s.Discard(4*granule, granule)
	}); avg != 0 {
		t.Fatalf("warm write/read/discard: %.1f allocations, want 0", avg)
	}
}
