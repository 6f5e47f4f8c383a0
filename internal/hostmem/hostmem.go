// Package hostmem models host DRAM as a PCIe-addressable memory device.
//
// The software driver keeps its rings and buffers here, FlexDriver only the
// shared receive ring, which it recycles in order so the NIC re-reads its
// descriptors unmodified (paper §5.2). A buffer's bytes live from its
// first write until its owner discards them as consumed.
package hostmem

import (
	"fmt"

	"flexdriver/internal/sim"
)

const (
	granule   = 1 << 10  // what a first write materialises
	window    = 64 << 10 // what one index table covers
	firstSlab = 4 << 10  // granules are carved from slabs that double
	maxSlab   = 64 << 10 // from firstSlab up to maxSlab
)

// Store is a sparse byte store of a fixed size that costs what a run
// holds: host DRAM behind Memory, and the FLD's data SRAM. A 1 KiB granule
// exists from its first write to its Discard, taken from the spares or
// carved from the store's slabs; bytes nobody wrote read as zero. Accesses
// past the end clip as copy does. The index is a table of granules per
// 64 KiB window, in a slice grown to the highest window written.
type Store struct {
	size  uint64
	win   []*[window / granule]*[granule]byte
	slab  []byte           // the newest slab's uncarved front; its cap is the slab's size
	spare []*[granule]byte // discarded granules, cleared, for the next first writes
}

// NewStore returns an empty store of size bytes.
func NewStore(size uint64) Store { return Store{size: size} }

// Write copies data to off, materialising the granules it covers.
func (s *Store) Write(off uint64, data []byte) {
	data = data[:min(uint64(len(data)), s.size-min(off, s.size))]
	for len(data) > 0 {
		// Look up again after materialising: a g proven non-nil here is
		// one the copy need not nil-check by loading its first line.
		g := s.at(off)
		if g == nil {
			s.materialise(off)
			continue
		}
		n := copy(g[off%granule:], data)
		data, off = data[n:], off+uint64(n)
	}
}

// Read fills dst from off; a granule nobody wrote reads as zeros without
// being materialised.
func (s *Store) Read(dst []byte, off uint64) {
	dst = dst[:min(uint64(len(dst)), s.size-min(off, s.size))]
	for len(dst) > 0 {
		n := min(len(dst), granule-int(off%granule))
		if g := s.at(off); g != nil {
			copy(dst[:n], g[off%granule:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+uint64(n)
	}
}

// at returns the granule holding off, or nil if nobody wrote it.
func (s *Store) at(off uint64) *[granule]byte {
	if w := off / window; w < uint64(len(s.win)) && s.win[w] != nil {
		return s.win[w][off/granule%(window/granule)]
	}
	return nil
}

// materialise makes the granule holding off, and its window's table: a
// spare if there is one, else one carved from the end of the slab.
func (s *Store) materialise(off uint64) {
	w := off / window
	if w >= uint64(len(s.win)) {
		s.win = append(s.win, make([]*[window / granule]*[granule]byte, w+1-uint64(len(s.win)))...)
	}
	if s.win[w] == nil {
		s.win[w] = new([window / granule]*[granule]byte)
	}
	if n := len(s.spare); n > 0 {
		s.win[w][off/granule%(window/granule)], s.spare = s.spare[n-1], s.spare[:n-1]
		return
	}
	if len(s.slab) == 0 {
		s.slab = make([]byte, max(firstSlab, min(2*cap(s.slab), maxSlab)))
	}
	n := len(s.slab) - granule
	s.win[w][off/granule%(window/granule)], s.slab = (*[granule]byte)(s.slab[n:]), s.slab[:n]
}

// Discard ends the life of the granules wholly inside [off, off+n): each
// is cleared for the next first write and reads as zero until then. A
// granule the range covers in part keeps its bytes. Under the pooldebug
// tag a discarded granule stays in place, poisoned.
func (s *Store) Discard(off, n uint64) {
	end := off + min(n, s.size-min(off, s.size))
	for off = (off + granule - 1) &^ (granule - 1); off+granule <= end; off += granule {
		if g := s.at(off); g != nil && sim.PoolDebug {
			sim.Poison(g[:])
		} else if g != nil {
			clear(g[:])
			s.win[off/window][off/granule%(window/granule)] = nil
			if s.spare == nil {
				s.spare = make([]*[granule]byte, 0, window/granule) // one allocation, not one per doubling
			}
			s.spare = append(s.spare, g)
		}
	}
}

// Memory is a sparse 64-bit byte-addressable memory. The zero value is not
// usable; create one with New.
type Memory struct {
	name string
	mem  Store
	next uint64 // bump allocator cursor
}

// New returns a memory of the given BAR-visible size.
func New(name string, size uint64) *Memory {
	return &Memory{name: name, mem: NewStore(size), next: 0x1000}
}

// PCIeName implements pcie.Device.
func (m *Memory) PCIeName() string { return m.name }

// BARSize implements pcie.Device.
func (m *Memory) BARSize() uint64 { return m.mem.size }

// MMIOWrite implements pcie.Device: DMA into host memory.
func (m *Memory) MMIOWrite(offset uint64, data []byte) { m.WriteAt(offset, data) }

// MMIORead implements pcie.Device: DMA out of host memory.
func (m *Memory) MMIORead(offset uint64, dst []byte) bool {
	m.ReadInto(offset, dst)
	return true
}

// WriteAt stores data at the given offset.
func (m *Memory) WriteAt(offset uint64, data []byte) {
	// Subtract, never add: offset+len can wrap 2^64 and pass.
	if n := uint64(len(data)); offset > m.mem.size || n > m.mem.size-offset {
		panic(fmt.Sprintf("hostmem: write of %d bytes at %#x beyond size %#x", len(data), offset, m.mem.size))
	}
	m.mem.Write(offset, data)
}

// ReadAt returns size bytes at the given offset. Unwritten bytes read as
// zero, like freshly mapped anonymous memory.
func (m *Memory) ReadAt(offset uint64, size int) []byte {
	out := make([]byte, size)
	m.ReadInto(offset, out)
	return out
}

// Discard declares the n bytes at offset consumed, as Store.Discard does.
func (m *Memory) Discard(offset uint64, n int) { m.mem.Discard(offset, uint64(n)) }

// ReadInto fills dst with the bytes at the given offset, for callers that
// own the destination (a reassembly buffer, a completion).
func (m *Memory) ReadInto(offset uint64, dst []byte) {
	if n := uint64(len(dst)); offset > m.mem.size || n > m.mem.size-offset {
		panic(fmt.Sprintf("hostmem: read of %d bytes at %#x beyond size %#x", len(dst), offset, m.mem.size))
	}
	m.mem.Read(dst, offset)
}

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the offset. Allocations are never freed: the simulated experiments set up
// rings once, exactly like a real driver would pin its DMA memory.
func (m *Memory) Alloc(size uint64, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("hostmem: alignment %d not a power of two", align))
	}
	off := (m.next + align - 1) &^ (align - 1)
	if off > m.mem.size || size > m.mem.size-off {
		panic(fmt.Sprintf("hostmem: out of memory allocating %d bytes at %#x of %#x", size, off, m.mem.size))
	}
	m.next = off + size
	return off
}
