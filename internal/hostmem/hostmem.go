// Package hostmem models host DRAM as a PCIe-addressable memory device.
//
// The software driver baseline keeps all of its rings and buffers here, and
// FlexDriver places exactly one structure here: the shared receive ring,
// which it recycles in-order so the NIC can re-read descriptors unmodified
// (paper §5.2, "Receive Ring in Host Memory").
package hostmem

import (
	"fmt"
)

const pageSize = 1 << 16

// Memory is a sparse 64-bit byte-addressable memory. The zero value is not
// usable; create one with New.
type Memory struct {
	name  string
	size  uint64
	pages map[uint64][]byte
	next  uint64 // bump allocator cursor
}

// New returns a memory of the given BAR-visible size.
func New(name string, size uint64) *Memory {
	return &Memory{name: name, size: size, pages: make(map[uint64][]byte), next: 0x1000}
}

// PCIeName implements pcie.Device.
func (m *Memory) PCIeName() string { return m.name }

// BARSize implements pcie.Device.
func (m *Memory) BARSize() uint64 { return m.size }

func (m *Memory) page(addr uint64) []byte {
	idx := addr / pageSize
	p := m.pages[idx]
	if p == nil {
		p = make([]byte, pageSize)
		m.pages[idx] = p
	}
	return p
}

// MMIOWrite implements pcie.Device: DMA into host memory.
func (m *Memory) MMIOWrite(offset uint64, data []byte) {
	m.WriteAt(offset, data)
}

// MMIORead implements pcie.Device: DMA out of host memory.
func (m *Memory) MMIORead(offset uint64, size int) []byte {
	return m.ReadAt(offset, size)
}

// WriteAt stores data at the given offset.
func (m *Memory) WriteAt(offset uint64, data []byte) {
	// Subtract, never add: offset+len can wrap 2^64 and pass.
	if n := uint64(len(data)); offset > m.size || n > m.size-offset {
		panic(fmt.Sprintf("hostmem: write of %d bytes at %#x beyond size %#x", len(data), offset, m.size))
	}
	for len(data) > 0 {
		p := m.page(offset)
		o := offset % pageSize
		n := copy(p[o:], data)
		data = data[n:]
		offset += uint64(n)
	}
}

// ReadAt returns size bytes at the given offset. Unwritten bytes read as
// zero, like freshly mapped anonymous memory.
func (m *Memory) ReadAt(offset uint64, size int) []byte {
	out := make([]byte, size)
	m.ReadInto(offset, out)
	return out
}

// ReadInto fills dst with the bytes at the given offset, for callers that
// own the destination (a reassembly buffer, a completion). A page nobody
// wrote reads as zeros without being materialised: only writes grow the
// backing store.
func (m *Memory) ReadInto(offset uint64, dst []byte) {
	if n := uint64(len(dst)); offset > m.size || n > m.size-offset {
		panic(fmt.Sprintf("hostmem: read of %d bytes at %#x beyond size %#x", len(dst), offset, m.size))
	}
	for len(dst) > 0 {
		o := offset % pageSize
		n := min(len(dst), int(pageSize-o))
		if p := m.pages[offset/pageSize]; p != nil {
			copy(dst[:n], p[o:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		offset += uint64(n)
	}
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
	if off > m.size || size > m.size-off {
		panic(fmt.Sprintf("hostmem: out of memory allocating %d bytes at %#x of %#x", size, off, m.size))
	}
	m.next = off + size
	return off
}

// Used returns the number of bytes handed out by Alloc.
func (m *Memory) Used() uint64 { return m.next }
