// Package hostmem models host DRAM as a PCIe-addressable memory device.
//
// The software driver baseline keeps all of its rings and buffers here, and
// FlexDriver places exactly one structure here: the shared receive ring,
// which it recycles in-order so the NIC can re-read descriptors unmodified
// (paper §5.2, "Receive Ring in Host Memory").
package hostmem

import "fmt"

const (
	granule   = 1 << 10  // what a first write materialises
	window    = 64 << 10 // what one index table covers
	firstSlab = 4 << 10  // granules are carved from slabs that double
	maxSlab   = 64 << 10 // from firstSlab up to maxSlab
)

// Store is a sparse byte store of a fixed size that costs what a run
// writes: host DRAM behind Memory, and the FLD's data SRAM. A 1 KiB granule
// exists from its first write, carved from the store's slabs; bytes nobody
// wrote read as zero. Accesses past the end clip as copy does. The index is
// a table of granules per 64 KiB window, in a slice grown to the highest
// window written.
type Store struct {
	size uint64
	win  []*[window / granule]*[granule]byte
	slab []byte // the newest slab's uncarved rest
	next int    // size of the next slab
}

// NewStore returns an empty store of size bytes.
func NewStore(size uint64) Store { return Store{size: size, next: firstSlab} }

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

// materialise makes the granule holding off, and its window's table.
func (s *Store) materialise(off uint64) {
	w := off / window
	if w >= uint64(len(s.win)) {
		s.win = append(s.win, make([]*[window / granule]*[granule]byte, w+1-uint64(len(s.win)))...)
	}
	if s.win[w] == nil {
		s.win[w] = new([window / granule]*[granule]byte)
	}
	if len(s.slab) == 0 {
		s.slab, s.next = make([]byte, s.next), min(2*s.next, maxSlab)
	}
	s.win[w][off/granule%(window/granule)], s.slab = (*[granule]byte)(s.slab), s.slab[granule:]
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
func (m *Memory) MMIORead(offset uint64, size int) []byte { return m.ReadAt(offset, size) }

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
